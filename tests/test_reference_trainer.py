"""The whole of ``train_metd`` against an independent, plain-Python statement of it.

``reference_train`` restates the method from the formulas in the
``losses`` and ``training`` docstrings, one sample at a time, every grid
built with loops over Python floats:

- each unit is the mean of its frames, embedded as V = W x + b (+ x
  with the residual path); each descriptor is the mean of [context ++
  its tokens], times the projection for projected-mean;
- in a batch every sample is scored at the batch's parameters, counted
  on its target's most similar subclass k+ (lowest index on ties)
  before its loss, and weighted by the modulating factor alpha of its
  target's counts;
- the fine-grained and margin terms are softmax cross-entropies over
  their term lists, differentiated through the cosine, summed over the
  batch and divided by its size;
- adaptive moments with decoupled decay and bias correction, or
  momentum SGD, at a constant or per-step cosine rate; the counts
  restart each epoch (or each batch), and each stage shuffles on its own
  stream.

From metd it takes only the initial model (``build_strategy_model``),
the shuffle stream tag and, under ``oversample``, the split that
``oversample_balance`` returns; it calls none of metd's kernels,
encoders or optimizer.
"""

import math

import numpy as np

from metd.data import EmbeddingDataset, Sample, oversample_balance
from metd.model import IDENTITY_MEAN, PROJECTED_MEAN, STREAM_SHUFFLE
from metd.training import build_strategy_model, train_metd

from conftest import run_config

ADAPTIVE, SGD = "adaptive-moments-decoupled-decay", "sgd-momentum"
ADAM_BETAS, ADAM_EPS, SGD_MOMENTUM = (0.9, 0.999), 1e-8, 0.9

# max |metd - reference| / max |reference|, for each trained array and each log
# column.  The worst of them measured 7.2e-15; the bound is set once and never widened.
RELATIVE_BOUND = 1e-12


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _mean(rows):
    return [sum(column) / len(rows) for column in zip(*rows)]


def _cosine(v, t):
    value = _dot(v, t) / (math.sqrt(_dot(v, v)) * math.sqrt(_dot(t, t)))
    return min(max(value, -1.0), 1.0)


def _cosine_gradient(a, b, cosine):
    """d cos(a, b) / d a."""
    na, nb = math.sqrt(_dot(a, a)), math.sqrt(_dot(b, b))
    return [y / (na * nb) - cosine * x / (na * na) for x, y in zip(a, b)]


def _cross_entropy(terms, pos):
    """-log softmax(terms)[pos], and its gradient with respect to each term."""
    loss = math.log1p(sum(math.exp(z - terms[pos]) for j, z in enumerate(terms) if j != pos))
    top = max(terms)
    exps = [math.exp(z - top) for z in terms]
    total = sum(exps)
    return loss, [e / total - (j == pos) for j, e in enumerate(exps)]


def _sample(v, stack, target, counts, tau):
    """Count one sample, then its (fg, margin) and dL/ds for each grid entry."""
    n, k = len(stack), len(stack[0])
    s = [[_cosine(v, stack[i][j]) for j in range(k)] for i in range(n)]
    own = s[target]
    k_plus, k_minus = own.index(max(own)), own.index(min(own))
    row = counts[target]
    row[k_plus] += 1
    alpha = (math.exp(1 / row[k_plus]) / sum(math.exp(1 / c) for c in row if c > 0)
             * (sum(row) / row[k_plus]))
    rivals = [i for i in range(n) if i != target]
    fine = [(target, k_plus)] + [(i, j) for i in rivals for j in range(k)]
    margin = [(target, k_minus)] + [(i, s[i].index(max(s[i]))) for i in rivals]
    d_s = [[0.0] * k for _ in range(n)]
    parts = []
    for entries, weight in ((fine, alpha), (margin, 1.0)):
        loss, grad = _cross_entropy([s[i][j] / tau for i, j in entries], 0)
        for (i, j), g in zip(entries, grad):
            d_s[i][j] += weight * g / tau
        parts.append(weight * loss)
    return parts, s, d_s


class _Optimizer:
    """One stage's optimizer over a flat list of parameter values."""

    def __init__(self, kind, size):
        self.adaptive = kind == ADAPTIVE
        self.first, self.second, self.step = [0.0] * size, [0.0] * size, 0

    def update(self, values, grads, lr, decay):
        self.step += 1
        b1, b2 = ADAM_BETAS
        for e, g in enumerate(grads):
            values[e] -= lr * decay * values[e]
            if self.adaptive:
                self.first[e] = b1 * self.first[e] + (1 - b1) * g
                self.second[e] = b2 * self.second[e] + (1 - b2) * g * g
                m_hat = self.first[e] / (1 - b1**self.step)
                v_hat = self.second[e] / (1 - b2**self.step)
                values[e] -= lr * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
            else:
                self.first[e] = SGD_MOMENTUM * self.first[e] + g
                values[e] -= lr * self.first[e]


def reference_train(train, config):
    """Train from ``build_strategy_model(train, config)``: the trained arrays and per-epoch log."""
    model = build_strategy_model(train, config)
    fitted = oversample_balance(train, config.seed) if config.oversample else train
    units = [(_mean(unit.frames.tolist()), unit.label) for unit in fitted.units()]
    tokens = model.bank.tokens.tolist()
    context = model.bank.context.tolist()
    projection = None if model.encoder.projection is None else model.encoder.projection.tolist()
    weight, bias = model.adapter.weight.tolist(), model.adapter.bias.tolist()
    residual, tau = model.adapter.residual, model.temperature
    n, k, n_tokens, _ = model.bank.tokens.shape
    length = len(context) + n_tokens

    def text_stack():
        means = [[_mean(context + tokens[i][j]) for j in range(k)] for i in range(n)]
        if projection is None:
            return means
        return [[[_dot(row, mean) for row in projection] for mean in cls] for cls in means]

    def image(x):
        out = [_dot(row, x) + b for row, b in zip(weight, bias)]
        return [o + f for o, f in zip(out, x)] if residual else out

    def flat(stage):
        if stage == 1:
            return [x for cls in tokens for sub in cls for tok in sub for x in tok]
        return [x for row in weight for x in row] + bias

    def unflatten(stage, values):
        if stage == 1:
            it = iter(values)
            for cls in tokens:
                for sub in cls:
                    for tok in sub:
                        tok[:] = [next(it) for _ in tok]
        else:
            width = len(weight[0])
            for r, row in enumerate(weight):
                row[:] = values[r * width : (r + 1) * width]
            bias[:] = values[len(weight) * width :]

    log = []
    for stage in (1, 2):
        epochs, size, base_lr, decay, kind, schedule = (
            getattr(config, f"stage{stage}_{name}")
            for name in ("epochs", "batch_size", "lr", "weight_decay", "optimizer", "schedule")
        )
        optimizer = _Optimizer(kind, len(flat(stage)))
        total_steps = max(1, epochs * math.ceil(len(units) / size))
        rates = [base_lr * 0.5 * (1 + math.cos(math.pi * s / total_steps))
                 if schedule == "cosine" else base_lr for s in range(total_steps)]
        frozen_v = [image(x) for x, _ in units]
        frozen_t = text_stack()
        step = 0
        for epoch in range(1, epochs + 1):
            order = np.random.default_rng([STREAM_SHUFFLE, config.seed, stage, epoch])
            order = order.permutation(len(units)).tolist()
            epoch_lr, sums = rates[step], [0.0, 0.0]
            counts = [[0] * k for _ in range(n)]
            for start in range(0, len(units), size):
                batch = order[start : start + size]
                if config.count_scope == "batch":
                    counts = [[0] * k for _ in range(n)]
                stack = text_stack() if stage == 1 else frozen_t
                grads = [0.0] * len(flat(stage))
                for u in batch:
                    x, target = units[u]
                    v = frozen_v[u] if stage == 1 else image(x)
                    parts, s, d_s = _sample(v, stack, target, counts, tau)
                    sums = [a + b for a, b in zip(sums, parts)]
                    if stage == 1:
                        g = [[[d_s[i][j] * c for c in _cosine_gradient(stack[i][j], v, s[i][j])]
                              for j in range(k)] for i in range(n)]
                        if projection is not None:  # d T / d token = P / L
                            g = [[[_dot(column, gt) for column in zip(*projection)]
                                  for gt in cls] for cls in g]
                        sample_grads = [x / length for cls in g for gt in cls
                                        for _ in range(n_tokens) for x in gt]
                    else:
                        g_v = [0.0] * len(v)
                        for i in range(n):
                            for j in range(k):
                                g_cos = _cosine_gradient(v, stack[i][j], s[i][j])
                                g_v = [a + d_s[i][j] * b for a, b in zip(g_v, g_cos)]
                        sample_grads = [gv * f for gv in g_v for f in x] + g_v
                    grads = [a + b for a, b in zip(grads, sample_grads)]
                values = flat(stage)
                optimizer.update(values, [g / len(batch) for g in grads], rates[step], decay)
                unflatten(stage, values)
                step += 1
            stack = text_stack()
            right = 0
            for x, target in units:
                v = image(x)
                scores = [sum(_cosine(v, t) for t in cls) / k for cls in stack]
                right += scores.index(max(scores)) == target
            fg, margin = (part / len(units) for part in sums)
            log.append((fg, margin, fg + margin, right / len(units), epoch_lr))
    return {"bank.tokens": tokens, "adapter.weight": weight, "adapter.bias": bias}, log


def _split(seed, unit_counts, feature_dim):
    """Units of 1-3 frames around one random direction per class; a single frame has no id."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(len(unit_counts), feature_dim))
    samples, next_id = [], 0
    for label, count in enumerate(unit_counts):
        for _ in range(count):
            frames = means[label] + 0.6 * rng.normal(size=(int(rng.integers(1, 4)), feature_dim))
            sequence = None if len(frames) == 1 else next_id
            next_id += sequence is not None
            samples += [Sample(frame, label, sequence) for frame in frames]
    return EmbeddingDataset(samples, feature_dim, len(unit_counts))


# (unit counts per class, feature dim, config overrides): together they cover both
# encoders, the residual on and off, both optimizers and schedules, non-zero decay,
# both count scopes, oversampling on and off, K = 1 to 3, multi-frame units and a
# short last batch.
CASES = (
    ((7, 5, 4), 6, dict(
        encoder_kind=IDENTITY_MEAN, token_dim=6, embed_dim=6, residual_adapter=True,
        n_subclasses=2, stage1_optimizer=ADAPTIVE, stage1_schedule="constant",
        stage1_weight_decay=0.01, stage2_optimizer=ADAPTIVE, stage2_schedule="cosine",
        stage2_weight_decay=0.1, count_scope="epoch", oversample=False)),
    ((7, 5, 4), 5, dict(
        encoder_kind=PROJECTED_MEAN, token_dim=4, embed_dim=6, residual_adapter=False,
        n_subclasses=3, stage1_optimizer=SGD, stage1_schedule="cosine",
        stage1_weight_decay=0.05, stage2_optimizer=SGD, stage2_schedule="constant",
        stage2_weight_decay=0.02, count_scope="batch", oversample=True)),
    ((4, 6, 7), 6, dict(
        encoder_kind=PROJECTED_MEAN, token_dim=5, embed_dim=6, residual_adapter=True,
        n_subclasses=1, stage1_optimizer=ADAPTIVE, stage1_schedule="cosine",
        stage2_optimizer=SGD, stage2_schedule="cosine", stage2_weight_decay=0.1,
        count_scope="epoch", oversample=True)),
    ((5, 4, 6, 3), 7, dict(
        encoder_kind=IDENTITY_MEAN, token_dim=5, embed_dim=5, residual_adapter=False,
        n_subclasses=3, stage1_optimizer=SGD, stage1_schedule="constant",
        stage2_optimizer=ADAPTIVE, stage2_schedule="constant", stage2_weight_decay=0.0,
        count_scope="batch", oversample=False)),
)


def test_train_metd_matches_the_plain_python_reference():
    for case, (unit_counts, feature_dim, overrides) in enumerate(CASES):
        train = _split(case, unit_counts, feature_dim)
        config = run_config(
            n_tokens=2, context_length=2, temperature=0.1, stage1_epochs=3, stage2_epochs=3,
            stage1_batch_size=6, stage2_batch_size=6, stage1_lr=0.05, stage2_lr=0.05,
            feature_dim=feature_dim, **overrides,
        )
        model, trace1, trace2 = train_metd(train, config)
        arrays, log = reference_train(train, config)
        ours = {
            "bank.tokens": model.bank.tokens, "adapter.weight": model.adapter.weight,
            "adapter.bias": model.adapter.bias,
        }
        columns = np.array([(s.fg, s.margin, s.total, s.war, s.lr) for s in trace1 + trace2])
        ours |= dict(zip(("fg", "margin", "total", "war", "lr"), columns.T))
        arrays |= dict(zip(("fg", "margin", "total", "war", "lr"), np.array(log).T))
        for name, reference in arrays.items():
            reference = np.asarray(reference)
            assert ours[name].shape == reference.shape, (case, name)
            gap = np.max(np.abs(ours[name] - reference))
            scale = np.max(np.abs(reference))
            assert gap <= RELATIVE_BOUND * scale, f"case {case} {name}: {gap / scale:.2e}"
