"""Side-by-side comparison of training strategies on one benchmark.

Five strategies share the same train/test splits and one parsed run
config (``metd.config.RunConfig``), which gives the seed, the model and
stage settings, the probe settings and the strategy list:

  zero-shot-fixed    frozen random descriptors, no training at all
  linear-probe       linear softmax head on frozen pooled features
  full-finetune      adapter and head trained jointly, no text branch
  learnable-context  shared trainable context tokens, frozen per-class
                     name token, contrastive cross-entropy
  metd               the full two-stage descriptor method

The benchmark builders live here too: the default benchmark places two
anti-correlated subcluster means (>= 120 degrees apart) per class, which
is the geometry a single descriptor per class cannot cover; the
distorted variant pushes every feature through a fixed well-conditioned
linear map.

A variant of a run is ``dataclasses.replace(config, ...)``: the
zero-shot model, for one, is ``replace(config, n_subclasses=1)``.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import losses, numerics
from .config import ADAPTIVE, STRATEGY_KINDS
from .data import (
    EmbeddingDataset,
    apply_linear_map,
    dataset_from_means,
    oversample_balance,
)
from .errors import ContractViolation
from .inference import evaluate, report_from_labels
from .model import (
    STREAM_HARNESS,
    DescriptorBank,
    Model,
    _require_seed,
    adapter_gradients,
    adapter_map,
    build_adapter,
    build_model,
    build_text_encoder,
    encode_image,
    encode_text,
    encode_text_token_gradient,
)
from .training import EpochStats, fit, run_stage1, run_stage2

ZERO_SHOT, LINEAR_PROBE, FULL_FINETUNE, LEARNABLE_CONTEXT, METD = STRATEGY_KINDS

# Sub-stream tags under STREAM_HARNESS.
_SUB_PROBE = 1
_SUB_CONTEXT = 2
_SUB_DISTORT = 3
_SUB_BENCH = 4


@dataclass(frozen=True)
class Strategy:
    """One strategy kind of a comparison."""

    kind: str

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ContractViolation(
                f"unknown strategy {self.kind!r}, expected one of {STRATEGY_KINDS}"
            )


@dataclass(frozen=True)
class StrategyResult:
    kind: str
    war: float
    uar: float
    wall_time: float
    echo: dict


BENCHMARK_SIGMA = 0.13
BENCHMARK_INTRA_DEG = 135.0  # angle between a class's two subcluster means
BENCHMARK_STEAL_DEG = 55.0  # minority mean to next class's majority mean
BENCHMARK_COUNTS = (200, 50)  # majority/minority samples per subcluster


def default_benchmark(seed: int = 7) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """3 classes x 2 anti-correlated subclusters, 200 train / 50 test per class.

    Each class holds a majority subcluster (80% of its samples) and a
    minority one, with the two means 135 degrees apart, so the class
    centroid is a poor summary of either.  The geometry is fixed up to a
    seeded random rotation and cyclically symmetric: majority means form
    a 120-degree ring, and each class's minority mean sits only 55
    degrees from the NEXT class's majority mean (every other cross-class
    pair is at least 82 degrees apart).  A single direction per class
    therefore has to trade its own minority off against a neighbor's
    encroaching majority, and with 4:1 sample imbalance plain averaging
    settles that trade in the majority's favor: the minority mode ends
    up owned by whichever direction happens to sit closest.  One
    descriptor on each subcluster's mean does not win that trade under
    mean-cosine scoring: it scores 0.79-0.87 test WAR, the trained bank
    0.95-0.97 (seeds 7-10, 101-104).  With the count weighting fixed at 1,
    training loses about 10 of 420 minority test units and no WAR (seeds
    7-10, 101-110).
    """
    _require_seed(seed)
    rng = np.random.default_rng([STREAM_HARNESS, _SUB_BENCH, seed])
    frame, _ = np.linalg.qr(rng.normal(size=(16, 5)))
    e1, e2 = frame.T[0], frame.T[1]
    lifts = frame.T[2:]
    majors = [
        math.cos(2.0 * math.pi * i / 3.0) * e1
        + math.sin(2.0 * math.pi * i / 3.0) * e2
        for i in range(3)
    ]
    cos_intra = math.cos(math.radians(BENCHMARK_INTRA_DEG))
    cos_steal = math.cos(math.radians(BENCHMARK_STEAL_DEG))
    # minority_i = a*major_i + b*major_{i+1} + c*lift_i, solved so that
    # <minority_i, major_i> = cos_intra and <minority_i, major_{i+1}> = cos_steal
    # given the majors' pairwise cosine of -1/2.
    b = (cos_steal + 0.5 * cos_intra) / 0.75
    a = cos_intra + 0.5 * b
    c = math.sqrt(1.0 - (a * a + b * b - a * b))
    means = np.stack(
        [
            np.stack(
                [
                    majors[i],
                    a * majors[i] + b * majors[(i + 1) % 3] + c * lifts[i],
                ]
            )
            for i in range(3)
        ]
    )
    return dataset_from_means(means, BENCHMARK_COUNTS, BENCHMARK_SIGMA, rng)


def distortion_matrix(
    dim: int, seed: int = 101, min_scale: float = 0.8, max_scale: float = 1.25
) -> np.ndarray:
    """A fixed invertible map: random rotations around a log-spaced scaling.

    Condition number is exactly max_scale/min_scale, so the distortion
    bends the feature geometry without collapsing any direction.
    """
    if dim < 1:
        raise ContractViolation(f"dim must be >= 1, got {dim}")
    if not (0 < min_scale <= max_scale):
        raise ContractViolation("need 0 < min_scale <= max_scale")
    _require_seed(seed)
    rng = np.random.default_rng([STREAM_HARNESS, _SUB_DISTORT, seed])
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    scales = np.exp(np.linspace(math.log(min_scale), math.log(max_scale), dim))
    return q1 @ np.diag(scales) @ q2.T


def distorted_benchmark(
    seed: int = 7, distortion_seed: int = 101
) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """The default benchmark with every feature pushed through a fixed map."""
    train, test = default_benchmark(seed)
    matrix = distortion_matrix(train.feature_dim, distortion_seed)
    return apply_linear_map(train, matrix), apply_linear_map(test, matrix)


def _train_head(train, config, train_adapter: bool):
    """Linear softmax-cross-entropy head, optionally with a joint adapter.

    The split's pooled rows and one-hot targets are fixed, so they are
    gathered once; a batch takes its rows of them, and ``stable_softmax``
    checks the logits of the head it trains.  Each batch overwrites the
    one gradient dict, each entry summed over the batch with
    ``sum(axis=0)``, which adds row after row, then divided by its size.
    """
    pooled, labels = train.pooled, train.unit_labels
    targets = np.eye(train.n_classes)[labels]
    adapter = build_adapter(train.feature_dim, train.feature_dim, residual=True)
    head_weight = np.zeros((train.n_classes, train.feature_dim))
    head_bias = np.zeros(train.n_classes)
    params = {"head.weight": head_weight, "head.bias": head_bias}
    if train_adapter:
        params["adapter.weight"] = adapter.weight
        params["adapter.bias"] = adapter.bias
    grads = {}

    def batch_gradients(batch):
        n = len(batch)
        x = pooled[batch]
        v = adapter_map(adapter.weight, adapter.bias, x, adapter.residual) if train_adapter else x
        dz = numerics.stable_softmax(adapter_map(head_weight, head_bias, v, False))
        dz -= targets[batch]
        grads["head.weight"] = (dz[:, :, None] * v[:, None, :]).sum(axis=0) / n
        grads["head.bias"] = dz.sum(axis=0) / n
        if train_adapter:
            dv = np.matmul(head_weight.T, dz[..., None])[..., 0]
            grad_w, grad_b = adapter_gradients(adapter, x, dv)
            grads["adapter.weight"] = grad_w.sum(axis=0) / n
            grads["adapter.bias"] = grad_b.sum(axis=0) / n
        return grads

    # The probe's own epochs and rate, with a fixed optimizer and schedule,
    # at stage 1's batch size; the seed only enters through the stream.
    stream = (STREAM_HARNESS, _SUB_PROBE, config.seed)
    for _ in fit(
        params, batch_gradients, len(labels), stream, epochs=config.probe_epochs,
        batch_size=config.stage1_batch_size, lr=config.probe_lr, weight_decay=0.0,
        optimizer=ADAPTIVE, schedule="constant",
    ):
        pass
    return adapter, head_weight, head_bias


def _head_report(test, adapter, head_weight, head_bias, use_adapter):
    v = encode_image(adapter, test.pooled) if use_adapter else test.pooled
    predicted = adapter_map(head_weight, head_bias, v, False).argmax(axis=-1)
    return report_from_labels(test.unit_labels, predicted, test.n_classes)


def _train_learnable_context(train, config):
    """Shared trainable context + frozen per-class name token, contrastive CE.

    Mirrors the prompt-learning baseline: one context block of M tokens
    is shared by all classes and is the only trainable state; each class
    keeps a fixed random identity token.  The pooled raw features are
    scored against the text embeddings, so embed_dim must equal
    feature_dim (identity-mean further forces token_dim == embed_dim),
    which ``_check_strategy`` enforces.
    This is the metd kernel with one subclass per class and the plain
    cross-entropy: the cosine, the softmax and the token pullback are
    the same functions.

    The pooled rows never change, so their width, their norms (a zero
    row is a ``ZeroNormError`` naming its unit, which ``_check_strategy``
    raises first) and their one-hot targets are checked or taken once,
    here.  A batch gathers its rows of them and checks only what it
    trains: the class embeddings, finite with nonzero norms, and their
    logits, through ``stable_softmax``.
    Each cosine has ``cosine_similarity``'s bits.
    Returns a ``Model`` for ``evaluate``: one name token per class after
    the trained context, and the identity residual adapter.
    """
    rng = np.random.default_rng([STREAM_HARNESS, _SUB_CONTEXT, config.seed])
    context = rng.normal(0.0, 0.02, size=(config.n_tokens, config.token_dim))
    names = rng.normal(0.0, 0.02, size=(train.n_classes, config.token_dim))
    encoder = build_text_encoder(
        config.encoder_kind, config.token_dim, config.embed_dim, config.seed
    )
    length = config.n_tokens + 1
    pooled, labels = train.pooled, train.unit_labels
    if encoder.embed_dim != train.feature_dim:
        raise ContractViolation(f"dimension mismatch: {train.feature_dim} vs {encoder.embed_dim}")
    pooled_norms = numerics._row_norms(pooled, "pooled units")
    targets = np.eye(train.n_classes)[labels]
    tau = config.temperature

    def batch_gradients(batch):
        embeddings = encode_text(encoder, context, names[:, None, :])
        t_norms = numerics.vector_norm(embeddings, "class embeddings")
        v, v_norms = pooled[batch], pooled_norms[batch]
        cosines = np.vecdot(v[:, None, :], embeddings) / (v_norms[:, None] * t_norms)
        sims = np.minimum(np.maximum(cosines, -1.0), 1.0)
        coeff = numerics.stable_softmax(sims / tau)
        coeff -= targets[batch]
        coeff /= tau
        grad_t = losses._cosine_gradient(v, embeddings, sims, v_norms, t_norms, losses.TEXT)
        # Pulled back as (1, E) rows, so each is the pullback of that row
        # alone: a stacked matrix product may round differently.
        terms = coeff[..., None, None] * grad_t[..., None, :]
        pulled = encode_text_token_gradient(encoder, terms, length)
        # A running sum in (sample, class) order, as a loop adds: np.sum may add pairwise.
        total = np.cumsum(pulled.reshape(-1, context.shape[1]), axis=0)[-1]
        return {"context": np.broadcast_to(total, context.shape) / len(batch)}

    params = {"context": context}
    stream = (STREAM_HARNESS, _SUB_CONTEXT, config.seed)
    for _ in fit(params, batch_gradients, len(labels), stream, **config.stage_settings(1)):
        pass
    bank = DescriptorBank(names[:, None, None, :], context)
    adapter = build_adapter(train.feature_dim, encoder.embed_dim)
    return Model(bank, encoder, adapter, config.temperature, config.seed)


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


def _check_strategy(strategy: Strategy, splits, config):
    """Raise ContractViolation if ``strategy`` cannot run on ``splits`` under ``config``."""
    train, test = splits
    if train.n_classes != test.n_classes or train.feature_dim != test.feature_dim:
        raise ContractViolation("train/test splits disagree on classes or dims")
    if len(train) == 0 and strategy.kind != ZERO_SHOT:
        raise ContractViolation("cannot train on an empty dataset")
    if len(test) == 0:
        raise ContractViolation("cannot evaluate an empty dataset")
    if strategy.kind == LEARNABLE_CONTEXT and config.embed_dim != train.feature_dim:
        raise ContractViolation(
            f"learnable-context baseline needs embed_dim == feature_dim, "
            f"got embed_dim {config.embed_dim} and feature_dim {train.feature_dim}; "
            f"drop learnable-context from strategies to compare the others"
        )
    if strategy.kind == LEARNABLE_CONTEXT:  # it divides by each unit's norm
        numerics._row_norms(train.pooled, "pooled units")
    if strategy.kind == METD and config.oversample:  # refused as train_metd would, before any fit
        oversample_balance(train, config.seed)
    if strategy.kind == METD:  # stage 1 scores each unit through the untrained adapter
        adapter = build_adapter(train.feature_dim, config.embed_dim, config.residual_adapter)
        numerics._row_norms(encode_image(adapter, train.pooled), "unit embeddings")


def run_strategy(
    strategy: Strategy,
    splits: tuple[EmbeddingDataset, EmbeddingDataset],
    config,
) -> StrategyResult:
    """Train and evaluate one strategy on a (train, test) split pair."""
    _check_strategy(strategy, splits, config)
    train, test = splits
    started = time.perf_counter()
    echo = {"seed": str(config.seed)}
    if strategy.kind == ZERO_SHOT:
        model = build_strategy_model(train, replace(config, n_subclasses=1))
        report = evaluate(test, model)
        echo["K"] = "1"
        echo["M"] = str(config.n_tokens)
    elif strategy.kind in (LINEAR_PROBE, FULL_FINETUNE):
        joint = strategy.kind == FULL_FINETUNE
        adapter, w, b = _train_head(train, config, train_adapter=joint)
        report = _head_report(test, adapter, w, b, use_adapter=joint)
        echo["epochs"] = str(config.probe_epochs)
        echo["lr"] = format(config.probe_lr, "g")
    elif strategy.kind == LEARNABLE_CONTEXT:
        report = evaluate(test, _train_learnable_context(train, config))
        echo["M"] = str(config.n_tokens)
        echo["epochs"] = str(config.stage1_epochs)
    else:
        model, _, _ = train_metd(train, config)
        report = evaluate(test, model)
        echo["K"] = str(config.n_subclasses)
        echo["M"] = str(config.n_tokens)
        echo["epochs"] = f"{config.stage1_epochs}+{config.stage2_epochs}"
    wall = time.perf_counter() - started
    return StrategyResult(
        kind=strategy.kind,
        war=report.war,
        uar=report.uar,
        wall_time=wall,
        echo=echo,
    )


def compare_all(
    splits: tuple[EmbeddingDataset, EmbeddingDataset], config
) -> list[StrategyResult]:
    """Check each of ``config.strategies`` against the splits, then run each in turn."""
    strategies = [Strategy(kind) for kind in config.strategies]
    for strategy in strategies:
        _check_strategy(strategy, splits, config)
    return [run_strategy(s, splits, config) for s in strategies]


def format_comparison(rows: list[StrategyResult]) -> str:
    """Aligned table, then one key=value line per strategy.

    Wall times are measurements, not deterministic outputs; they appear
    only in the key=value block.
    """
    width = max(len(r.kind) for r in rows) + 2
    lines = [f"{'strategy':<{width}}war     uar"]
    for row in rows:
        lines.append(f"{row.kind:<{width}}{row.war:<8.4f}{row.uar:.4f}")
    lines.append("")
    for row in rows:
        extras = " ".join(f"{k}={v}" for k, v in sorted(row.echo.items()))
        lines.append(
            f"strategy={row.kind} war={row.war:.6f} uar={row.uar:.6f} "
            f"wall_time={row.wall_time:.3f} {extras}"
        )
    return "\n".join(lines)
