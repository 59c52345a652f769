"""Two-stage training with per-subclass sample counting.

``train_metd`` runs the method: it oversamples the split if asked, builds
the model, then runs stage 1, which optimizes the descriptor tokens with
everything else frozen, and stage 2, which optimizes the image adapter
with the descriptors frozen.  Both stages minimize the same per-sample
loss (fine-grained + margin) and reduce batches by arithmetic mean.

One loop, ``fit``, runs both stages and the comparison baselines: it
owns the seeded per-epoch shuffle, the batches, the learning-rate
schedule, the optimizer state and the global step, and calls
``optimizer_step`` once per batch.  Each caller passes its parameter
arrays, a batch-gradient function, its random-stream prefix and its six
settings, so a fixed seed and config reproduce training bit for bit.

The subclass counts are one (n_classes, n_subclasses) int64 array per
stage: entry [i, k] is how many samples of class i landed on subclass k.
They feed the modulating factor, and the current sample is counted
BEFORE its loss is computed, which guarantees the assigned subclass
count is at least one.  Counts reset every epoch by default
(``count_scope="epoch"``), or every batch behind the config flag.

One function, ``_step``, runs a training batch in one grid: the
parameters, and so every selection, are fixed within a batch, so sample
b's counts are those before the batch plus a running sum of the batch's
assignments, taken before its one loss and one gradient call.

Each stage is defined once, by ``_Stage``: the arrays it trains, the
side it re-embeds (the descriptor stack in stage 1, the unit embeddings
in stage 2), which is the one side the loss is differentiated for, its
grid, and how that side's per-sample gradients become batch-mean
parameter gradients.  ``fd_check`` is its one-sample batch with given
counts, so it checks the gradients ``run_stage1`` and ``run_stage2`` apply.  Its +/-h
probes are copies, never the array itself, of only the part of a trained
array that the moved entry can change: one descriptor's (M, d) tokens in
stage 1, the whole weight or bias in stage 2.  ``central_difference``
passes all of an array's probes, as one stack, to one loss, which embeds
them through the real encoder in one ``_Stage.embed`` call and scores
them in one ``total_loss`` call.

Optimizers are implemented here directly: an adaptive-moments variant
with decoupled weight decay (moments 0.9/0.999, eps 1e-8, bias
correction, decay applied to the parameter separately from the gradient
step) and plain momentum SGD (momentum 0.9).  Their accumulators are flat over
the arrays in sorted-name order, so a step is one elementwise pass however
many arrays it updates.  The cosine schedule decays the rate per step.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import losses, numerics
from .config import ADAPTIVE, OPTIMIZER_KINDS
from .data import EmbeddingDataset, Unit, oversample_balance
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
    _require_seed,
    adapter_gradients,
    adapter_map,
    bank_embeddings,
    build_model,
    build_text_encoder,
    encode_image,
    encode_text,
    encode_text_token_gradient,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SGD_MOMENTUM = 0.9


@dataclass
class OptimizerState:
    """Flat float64 accumulators over a fit's arrays, laid end to end in sorted-name order.

    ``spans`` holds each array's (name, shape, slice of the flat vectors) in
    that order.  ``first`` is moments or velocity, ``second`` second moments
    (empty for SGD), and ``grad`` is the buffer a step lays the grads out in.
    """

    kind: str
    step: int
    spans: tuple[tuple[str, tuple[int, ...], slice], ...]
    first: np.ndarray
    second: np.ndarray
    grad: np.ndarray


def init_optimizer_state(params: dict[str, np.ndarray], kind: str) -> OptimizerState:
    if kind not in OPTIMIZER_KINDS:
        raise ContractViolation(f"unknown optimizer {kind!r}")
    if not params:
        raise ContractViolation("an optimizer needs at least one parameter array")
    spans, size = [], 0
    for name in sorted(params):
        shape = params[name].shape
        spans.append((name, shape, slice(size, size + math.prod(shape))))
        size += math.prod(shape)
    second = np.zeros(size if kind == ADAPTIVE else 0)
    return OptimizerState(
        kind=kind, step=0, spans=tuple(spans), first=np.zeros(size), second=second,
        grad=np.empty(size),
    )


def _fits(arrays: dict[str, np.ndarray], spans) -> bool:
    """Whether ``arrays`` holds exactly the names in ``spans``, each array of its shape."""
    if len(arrays) != len(spans):
        return False
    for name, shape, _ in spans:
        array = arrays.get(name)
        if array is None or array.shape != shape:
            return False
    return True


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
    zero decay only the gradient step does.  The gradient step is one
    elementwise pass over the flat accumulators and the grads laid end to
    end in ``state.grad``; nothing changes unless all fit ``state.spans``.
    """
    for role, arrays in (("params", params), ("grads", grads)):
        if not _fits(arrays, state.spans):
            shapes = {name: array.shape for name, array in arrays.items()}
            layout = {name: shape for name, shape, _ in state.spans}
            raise ContractViolation(f"{role} {shapes} do not fit the optimizer's {layout}")
    if not (learning_rate >= 0 and math.isfinite(learning_rate)):
        raise ContractViolation(f"bad learning_rate {learning_rate}")
    if not (weight_decay >= 0 and math.isfinite(weight_decay)):
        raise ContractViolation(f"bad weight_decay {weight_decay}")
    state.step += 1
    t = state.step
    grad = state.grad
    for name, _, span in state.spans:
        grad[span] = grads[name].reshape(-1)
    if state.kind == ADAPTIVE:
        m, v = state.first, state.second
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (grad * grad)
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        update = learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    else:
        velocity = state.first
        velocity *= SGD_MOMENTUM
        velocity += grad
        update = learning_rate * velocity
    for name, shape, span in state.spans:
        param = params[name]
        if weight_decay != 0.0:
            param -= (learning_rate * weight_decay) * param
        param -= update[span].reshape(shape)


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


def fit(params, batch_gradients, n_items: int, stream, *, epochs, batch_size, lr,
        weight_decay, optimizer, schedule):
    """The one optimisation loop, shared by both stages and the baselines.

    Each epoch draws a permutation of ``range(n_items)`` from
    ``default_rng([*stream, epoch])`` and cuts it into batches of
    ``batch_size``.  Every batch is one ``optimizer_step`` of kind
    ``optimizer`` on ``params`` (updated in place) with the gradient dict
    returned by ``batch_gradients(batch)``, at the global step's rate:
    ``lr``, or its cosine decay over all steps if ``schedule`` is
    ``"cosine"``.  Yields ``(epoch, lr)`` after each epoch, ``lr`` being
    the rate of the epoch's first step, so the caller can evaluate and log
    between epochs.  A ContractViolation from ``batch_gradients`` is
    raised again with the epoch and step (from 1) added to its message.
    """
    state = init_optimizer_state(params, optimizer)
    total_steps = max(1, epochs * math.ceil(n_items / batch_size))

    def scheduled_lr(step):
        return cosine_lr(lr, step, total_steps) if schedule == "cosine" else lr

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
    """Stage 1 or 2 of ``model`` over units' (U,) ``labels`` and (U, F) ``pooled`` features.

    ``params`` are the arrays it trains, ``trains`` the side they embed into
    (``losses.TEXT`` or ``losses.IMAGE``), the only side the loss is
    differentiated for.  The side they cannot change, ``frozen``, is embedded
    once, here: in stage 1 all of ``pooled`` in one call, where a unit that
    embeds to zero is a ``ZeroNormError`` naming it.  The caller checks F.
    """

    def __init__(self, model: Model, labels: np.ndarray, pooled: np.ndarray, number: int):
        self.model = model
        self.number = number
        self.labels = labels
        self.pooled = pooled
        if number == 1:
            # The adapter is frozen in this stage, so the unit embeddings are too.
            self.frozen = encode_image(model.adapter, pooled)
            numerics._row_norms(self.frozen, "unit embeddings")
            self.params = {"bank.tokens": model.bank.tokens}
            self.trains = losses.TEXT
        elif number == 2:
            # Descriptors are frozen in this stage, so their embeddings are too.
            self.frozen = bank_embeddings(model.bank, model.encoder)
            self.params = {
                "adapter.weight": model.adapter.weight,
                "adapter.bias": model.adapter.bias,
            }
            self.trains = losses.IMAGE
        else:
            raise ContractViolation(f"stage must be 1 or 2, got {number}")

    def embed(self, rows, moved=None):
        """The side this stage trains, embedded from the arrays' current values.

        Stage 1 gives the descriptor stack (N, K, D).  Stage 2 gives the
        embeddings of units ``rows``: (D,) for one index, (B, D) for an
        index array or a slice.  ``moved`` maps one of ``params``' names to
        a stack of values embedded in one encoder call, row for row the
        bits of the call with that value in place: in stage 1, (..., M, d)
        token sequences of one descriptor each, to (..., D); in stage 2,
        (..., *shape) values of that array.  The arrays themselves are only read.
        """
        if self.number == 1:
            if moved is None:
                return bank_embeddings(self.model.bank, self.model.encoder)
            return encode_text(self.model.encoder, self.model.bank.context, moved["bank.tokens"])
        arrays = {**self.params, **(moved or {})}
        return adapter_map(
            arrays["adapter.weight"], arrays["adapter.bias"], self.pooled[rows],
            self.model.adapter.residual,
        )

    def sides(self, rows, embedded):
        """Units ``rows``' embeddings and the descriptor stack.

        ``embedded`` is what ``embed`` returned; the other side is ``frozen``.
        """
        if self.number == 1:
            return self.frozen[rows], embedded
        return embedded, self.frozen

    def grid(self, rows, embedded):
        """Units ``rows``' ``similarity_grid``; ``embedded`` is what ``embed`` returned."""
        return losses.similarity_grid(*self.sides(rows, embedded), self.model.temperature)

    def gradients(self, rows, grid, breakdown):
        """The batch-mean gradient of each of ``params`` from units ``rows``' grid and loss.

        The encoder is a mean over (context ++ tokens), so every token
        position of a descriptor receives the same pullback, broadcast over M.
        """
        grad_v, grad_t = losses.loss_gradients(grid, breakdown, wrt=(self.trains,))
        n = len(rows)
        if self.number == 1:
            bank = self.model.bank
            length = bank.context_length + bank.n_tokens
            pulled = encode_text_token_gradient(self.model.encoder, grad_t.sum(axis=0) / n, length)
            return {"bank.tokens": np.broadcast_to(pulled[:, :, None, :], bank.tokens.shape).copy()}
        grad_w, grad_b = adapter_gradients(self.model.adapter, self.pooled[rows], grad_v)
        return {
            "adapter.weight": grad_w.sum(axis=0) / n,
            "adapter.bias": grad_b.sum(axis=0) / n,
        }


def _step(stage: _Stage, batch, counts: np.ndarray, sums: np.ndarray):
    """Count a training batch in its grid, then return its batch-mean parameter gradients.

    Sample b's loss sees the (n_classes, n_subclasses) ``counts`` plus the
    batch's assignments to closest subclasses up to and including b.
    ``counts`` then moves past the batch, and each sample's (fg, margin,
    total) is added to ``sums`` in batch order.
    """
    grid = stage.grid(batch, stage.embed(batch))
    targets = stage.labels[batch]
    rows = np.arange(len(batch))
    assigned = np.zeros((len(batch), *counts.shape), dtype=np.int64)
    assigned[rows, targets, grid.best_subclasses[rows, targets]] = 1
    running = counts + np.cumsum(assigned, axis=0)
    counts[:] = running[-1]
    breakdown = losses.total_loss(grid, targets, running[rows, targets])
    parts = (breakdown.fg, breakdown.margin, breakdown.total)
    # A running sum, as the loop added them: np.sum may add pairwise.
    sums[:] = np.concatenate((sums[:, None], parts), axis=1).cumsum(axis=1)[:, -1]
    return stage.gradients(batch, grid, breakdown)


def _run_stage(model, dataset, config, number):
    """Fit stage ``number``; log each epoch's mean losses, train WAR, and lr.

    Counts restart every epoch, or every batch under ``count_scope =
    "batch"``.  Train WAR scores the stage's held labels and frozen side
    against its trained side, embedded once per epoch: stage 1's
    descriptor stack, or stage 2's pooled (U, F) array encoded in one
    call.  Each value has ``evaluate``'s bits.
    """
    if len(dataset) == 0:
        raise ContractViolation("cannot train on an empty dataset")
    check_compatible(dataset, model)
    stage = _Stage(model, dataset.unit_labels, dataset.pooled, number)
    n_units = len(stage.labels)
    counts = np.zeros((model.n_classes, model.n_subclasses), dtype=np.int64)
    sums = np.zeros(3)

    def gradients(batch):
        if config.count_scope == "batch":
            counts[:] = 0
        return _step(stage, batch, counts, sums)

    trace: list[EpochStats] = []
    stream = (STREAM_SHUFFLE, config.seed, number)
    settings = config.stage_settings(number)
    for epoch, lr in fit(stage.params, gradients, n_units, stream, **settings):
        fg, margin, total = sums / n_units
        every = slice(None)
        report = _score(stage.labels, *stage.sides(every, stage.embed(every)))
        trace.append(EpochStats(epoch, fg, margin, total, report.war, lr))
        sums[:] = 0.0
        counts[:] = 0
    return trace


def run_stage1(model: Model, dataset: EmbeddingDataset, config) -> list[EpochStats]:
    """Train the descriptor tokens by the stage-1 keys; all else stays bit-identical."""
    return _run_stage(model, dataset, config, 1)


def run_stage2(model: Model, dataset: EmbeddingDataset, config) -> list[EpochStats]:
    """Train the adapter by the stage-2 keys, against the frozen descriptors."""
    return _run_stage(model, dataset, config, 2)


def build_strategy_model(train: EmbeddingDataset, config) -> Model:
    """A fresh model for ``config``, sized to ``train``'s classes and feature dim."""
    return build_model(
        n_classes=train.n_classes,
        n_subclasses=config.n_subclasses,
        n_tokens=config.n_tokens,
        token_dim=config.token_dim,
        embed_dim=config.embed_dim,
        feature_dim=train.feature_dim,
        context_length=config.context_length,
        encoder_kind=config.encoder_kind,
        residual=config.residual_adapter,
        temperature=config.temperature,
        seed=config.seed,
    )


def train_metd(
    train: EmbeddingDataset, config
) -> tuple[Model, list[EpochStats], list[EpochStats]]:
    """Run the full two-stage pipeline; returns the trained model and traces."""
    # An empty split is not oversampled: the stages reject it.
    fitted = oversample_balance(train, config.seed) if config.oversample and len(train) else train
    model = build_strategy_model(train, config)
    trace1 = run_stage1(model, fitted, config)
    trace2 = run_stage2(model, fitted, config)
    return model, trace1, trace2


def central_difference(loss, array: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of a batched loss w.r.t. one array.

    ``array`` is a stack of matrices, its last two axes (a vector is one
    matrix).  Each entry has two probes: copies of the one matrix that
    holds it, with the entry moved by +h and by -h.  ``array`` itself is
    only read, so it keeps its bits whatever ``loss`` raises.  ``loss``
    maps the (2 * entries, *matrix shape) stack of all probes, probe
    2e + side moving entry e of the flat array by +h (side 0) or -h
    (side 1), to the loss of each, in one call.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ContractViolation(f"h must be > 0, got {h}")
    matrices = array.reshape(-1, math.prod(array.shape[-2:]))
    n, width = matrices.shape
    probes = np.repeat(matrices, 2 * width, axis=0)
    moved = probes.reshape(n, width, 2, width)  # [i, j, side]: probe 2 * (i * width + j) + side
    entries = np.arange(width)
    moved[:, entries, 0, entries] = matrices + h
    moved[:, entries, 1, entries] = matrices - h
    n_probes = 2 * array.size
    values = np.asarray(loss(probes.reshape(n_probes, *array.shape[-2:])))
    if values.shape != (n_probes,):
        raise ContractViolation(f"loss gave shape {values.shape} for {n_probes} probes")
    plus, minus = values.reshape(array.size, 2).T
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
    target_counts,
    stage: int,
    corrupt: bool = False,
) -> dict[str, tuple[int, float]]:
    """Compare one stage's training gradients with central differences.

    ``sample`` is a one-sample batch of the stage's training path, with
    ``target_counts`` as its counts.  ``central_difference`` moves each
    entry the stage trains by +/-h in a copy of the matrix that holds it
    (one descriptor's tokens, or the whole weight or bias), and its loss
    embeds all of an array's probes in one ``_Stage.embed`` call and
    scores them in one ``total_loss`` call, row for row the bits of the
    one-sample loss with the entry moved in place.  In stage 1 a probe
    moves one descriptor, so its one cosine is written into a copy of the
    sample's grid, whose other entries keep their bits.  Returns, per trained
    array name, its entry count and the largest relative error between
    the analytic and the numeric gradient.  ``corrupt`` deliberately
    breaks the first analytic entry (negative control: its error must
    be large).
    """
    counts = np.asarray(target_counts)[None]
    unit_embedding(model, sample)  # checks the sample's frames against the adapter
    path = _Stage(model, np.array([sample.label]), temporal_mean_pool(sample.frames)[None], stage)
    batch = np.array([0])
    grid = path.grid(batch, path.embed(batch))

    def score(probes):
        # Each probe scored as sample 0 alone, with its counts.
        n = len(probes)
        targets, repeated = np.repeat(path.labels, n), np.repeat(counts, n, axis=0)
        if stage == 2:
            return losses.total_loss(path.grid(0, probes), targets, repeated).total
        # Probe p moved descriptor p // (2 M d) alone: its cosine replaces that grid entry.
        i, k = np.divmod(np.arange(n) // (2 * model.bank.tokens[0, 0].size), model.n_subclasses)
        values = np.repeat(grid.values, n, axis=0)
        values[np.arange(n), i, k] = numerics.cosine_similarity(path.frozen[0], probes)
        probe_grid = losses.SimilarityGrid(values, grid.temperature)
        return losses.total_loss(probe_grid, targets, repeated).total

    analytic = path.gradients(batch, grid, losses.total_loss(grid, path.labels, counts))
    if corrupt:
        first = sorted(analytic)[0]
        worst_scale = max(float(np.max(np.abs(g))) for g in analytic.values())
        analytic[first].reshape(-1)[0] += 0.05 * (1.0 + worst_scale)

    errors = {}
    for name in sorted(path.params):
        numeric = central_difference(
            lambda probes: score(path.embed(0, {name: probes})), path.params[name], h
        )
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
    _require_seed(seed)
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
    tokens = rng.normal(size=(n_classes, n_subclasses, n_tokens, token_dim))
    context = rng.normal(size=(context_length, token_dim))
    weight = rng.normal(0.0, 0.3, size=(embed_dim, feature_dim))
    adapter = ImageAdapter(weight, rng.normal(0.0, 0.1, size=embed_dim), residual)
    encoder = build_text_encoder(kind, token_dim, embed_dim, seed)
    model = Model(DescriptorBank(tokens, context), encoder, adapter, temperature, seed)
    n_frames = int(rng.integers(1, 4))
    frames = rng.normal(size=(n_frames, feature_dim))
    target = int(rng.integers(0, n_classes))
    counts = rng.integers(1, 9, size=n_subclasses)
    sample = Unit(frames=frames, label=target)
    return model, sample, counts
