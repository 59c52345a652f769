"""Contrastive losses over a class-by-subclass similarity grid.

The training signal for one sample is built from the grid of cosine
similarities s[i, k] between the sample's embedding V and every
descriptor embedding T[i, k], divided by a temperature tau.  Writing t
for the true class, k+ for the target's most similar subclass and k-
for its least similar one:

  fine-grained term (weighted by the count factor alpha):

      L_fg = -alpha * log( e^{s[t,k+]/tau} /
                           (e^{s[t,k+]/tau} + sum_{i != t} sum_k e^{s[i,k]/tau}) )

  The target's other subclasses are deliberately absent from the
  denominator: the sample should not be pushed away from sibling
  descriptors of its own class.

  margin term (pulls the target's worst descriptor above every rival
  class's best one):

      L_margin = -log( e^{s[t,k-]/tau} /
                       (e^{s[t,k-]/tau} + sum_{i != t} e^{max_k s[i,k]/tau}) )

  total:  L = L_fg + L_margin.

alpha is a modulating factor computed from how many samples of the class
have already landed on each subclass this epoch; it boosts samples
assigned to rarely-hit subclasses.  It is treated as a constant during
differentiation (no gradient flows through the counts).

Every loss is a softmax cross-entropy computed as -log softmax(terms)[pos]
= softplus(lse(rivals) - terms[pos]), with softplus(g) = max(g, 0) +
log1p(e^{-|g|}) and the rivals being every term but the target's.
Unlike lse(all terms) - terms[pos], this does not round to exactly 0
when the target leads by tens of nats; with no rivals (one class) it is
exactly 0.  With one subclass per class alpha is 1 and the fine-grained
loss is CLIP's plain contrastive cross-entropy, which
test_single_descriptor_reduces_to_plain_contrastive_loss checks against
a 50-digit reference.

Everything works on a batch: a grid is (B, N, K), every result has one
row per sample, and row b is bit for bit the batch-of-one call on row
b, so training makes one call per batch (a single sample is a batch of
one).  Each intermediate is computed once: the grid keeps the
embeddings, the descriptor stack and the row norms similarity_grid
took, and computes its logits (values / tau) and each class's best
subclass on first use.  total_loss is the one loss entry point: it
checks the targets and counts, takes k+ and k- from the grid, calls
modulating_factor once and returns both terms in a LossBreakdown.
Training counts each sample on k+, read from best_subclasses, first.
loss_gradients takes that grid and that LossBreakdown, reads the
embeddings, stack and targets from them, selects nothing again, and
builds only the sides it is asked for.  Each loss adds
weight * (softmax(terms) - onehot(pos)) / tau to the grid entries its
terms read: every (i, k) with i != t plus (t, k+) for the fine-grained
list, weight alpha; (t, k-) plus each rival's argmax for the margin
list, weight 1.  A (B, N, K) mask picks the fine-grained terms and a
(row, class, pick) index the margin terms, both in (class, subclass)
order, (N-1)K+1 and N to a row.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ContractViolation


@dataclass(frozen=True)
class SimilarityGrid:
    """Cosine similarities (B, N, K) of B samples with tau.

    N counts classes and K subclasses.  Entries must lie in [-1, 1];
    the temperature must be positive.  ``similarity_grid`` also sets the
    inputs the values came from, which ``loss_gradients`` reads: the
    embeddings, the descriptor stack and the row norms of each.
    """

    values: np.ndarray
    temperature: float
    embeddings: np.ndarray | None = field(default=None, repr=False, compare=False)
    stack: np.ndarray | None = field(default=None, repr=False, compare=False)
    embedding_norms: np.ndarray | None = field(default=None, repr=False, compare=False)
    stack_norms: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 3 or values.size == 0:
            raise ContractViolation(f"similarities must be (B, N, K): {values.shape}")
        if not (np.abs(values) <= 1.0).all():
            if not np.isfinite(values).all():
                raise ContractViolation("similarities contain non-finite entries")
            raise ContractViolation("similarities must lie in [-1, 1]")
        numerics.check_temperature(self.temperature)

    @property
    def n_classes(self) -> int:
        return self.values.shape[-2]

    @property
    def n_subclasses(self) -> int:
        return self.values.shape[-1]

    @functools.cached_property
    def logits(self) -> np.ndarray:
        """values / temperature, the terms every softmax of the losses reads."""
        return self.values / self.temperature

    @functools.cached_property
    def best_subclasses(self) -> np.ndarray:
        """Each class's highest-similarity subclass (lowest-index ties), (B, N)."""
        return self.values.argmax(axis=-1)


@dataclass(frozen=True)
class LossBreakdown:
    """Loss parts per sample, each a (B,) array.

    total is fg + margin exactly as computed; target_class is the class
    each loss was taken against.
    """

    fg: np.ndarray
    margin: np.ndarray
    total: np.ndarray
    alpha: np.ndarray
    closest_subclass: np.ndarray
    farthest_subclass: np.ndarray
    target_class: np.ndarray


def _check_target(grid: SimilarityGrid, targets) -> np.ndarray:
    """The grid's targets, one int per row, (B,)."""
    t = np.asarray(targets)
    if t.shape != grid.values.shape[:-2] or t.dtype.kind not in "iu":
        raise ContractViolation(f"targets {targets!r} do not fit grid {grid.values.shape}")
    bad = (t < 0) | (t >= grid.n_classes)
    if bad.any():
        raise ContractViolation(f"target {t[bad][0]} out of range for {grid.n_classes} classes")
    return t


def modulating_factor(counts, closest):
    """Count-based weight for the fine-grained loss, per row.

    Row b of ``counts`` (B, K) holds how many samples of sample b's
    target class have been assigned to each of its subclasses so far
    (including sample b), and ``closest[b]`` is the subclass sample b
    landed on.  With n+ = counts[closest] and the sum below running over
    subclasses with nonzero counts:

        alpha = ( e^{1/n+} / sum_k e^{1/n_k} ) * ( sum_k n_k / n+ )

    Rare subclasses get a factor above 1, saturated ones below; with all
    counts equal the two factors cancel to 1.  Returns (B,).
    """
    rows = np.asarray(counts)
    if rows.ndim != 2 or rows.shape[1] == 0 or rows.dtype.kind not in "iu":
        raise ContractViolation(
            f"counts must be a nonempty (B, K) integer array: {rows.shape} {rows.dtype}"
        )
    picks = np.asarray(closest)
    if picks.shape != rows.shape[:1] or not ((picks >= 0) & (picks < rows.shape[1])).all():
        raise ContractViolation(f"closest {closest} out of range for {rows.shape[1]} counts")
    if rows.min() < 0:
        raise ContractViolation("counts must be nonnegative")
    assigned = (np.arange(len(rows)), picks)
    n_plus = rows[assigned]
    if n_plus.min() < 1:
        raise ContractViolation("count of the assigned subclass must be >= 1")
    weights = np.exp(1.0 / np.maximum(rows, 1))
    first = weights[assigned] / np.where(rows > 0, weights, 0.0).sum(axis=-1)
    return first * (rows.sum(axis=-1) / n_plus)


def _softplus(gaps: np.ndarray) -> np.ndarray:
    """max(g, 0) + log1p(e^{-|g|}) of each entry of a 1-D array, with libm's exp and log1p.

    softplus(lse(rivals) - target) is -log softmax at the target; see numerics
    for why the exp and log1p are libm's.
    """
    tail = map(math.log1p, map(math.exp, (-np.abs(gaps)).tolist()))
    return np.maximum(gaps, 0.0) + np.fromiter(tail, np.float64, gaps.size)


def total_loss(grid: SimilarityGrid, targets, target_counts) -> LossBreakdown:
    """Fine-grained + margin loss for each sample of the grid.

    ``targets`` holds each sample's class, (B,), and ``target_counts``
    its per-subclass assignment counts of that class, already including
    the sample, (B, K).
    """
    t = _check_target(grid, targets)
    counts = np.asarray(target_counts)
    n, k = grid.n_classes, grid.n_subclasses
    expected = grid.values.shape[:-2] + (k,)
    if counts.shape != expected:
        raise ContractViolation(f"target_counts shape {counts.shape} != {expected}")
    rows = np.arange(t.size)
    closest = grid.best_subclasses[rows, t]
    farthest = grid.values[rows, t].argmin(axis=-1)
    alpha = modulating_factor(counts, closest)
    if n > 1:
        z = grid.logits
        rivals = z[np.arange(n) != t[:, None]].reshape(t.size, n - 1, k)
        gaps = np.concatenate((
            numerics.log_sum_exp(rivals.reshape(t.size, -1)) - z[rows, t, closest],
            numerics.log_sum_exp(rivals.max(axis=-1)) - z[rows, t, farthest],
        ))
        fg, mg = _softplus(gaps).reshape(2, t.size)
    else:  # no rival class: each list is its target term alone, and the loss is 0
        fg = mg = np.zeros(t.size)
    fg = alpha * fg
    return LossBreakdown(fg, mg, fg + mg, alpha, closest, farthest, t)


def similarity_grid(embeddings, text_embeddings, temperature: float) -> SimilarityGrid:
    """Cosine similarity of a batch of embeddings (B, D) against one (N, K, D) descriptor stack.

    Gives a (B, N, K) grid.  The embeddings, the stack's entries and
    their dimensions are checked by ``cosine_similarity``; only the ranks
    are checked here.
    """
    v = np.asarray(embeddings, dtype=np.float64)
    stack = np.asarray(text_embeddings, dtype=np.float64)
    if (v.ndim, stack.ndim) != (2, 3):
        raise ContractViolation(
            f"embeddings {v.shape} do not fit descriptor stack {stack.shape}: "
            f"a (B, D) batch takes one 3-D stack (N, K, D)"
        )
    values, v_norms, t_norms = numerics.cosine_similarity(v, stack, with_norms=True)
    return SimilarityGrid(values, temperature, v, stack, v_norms, t_norms)


IMAGE = "image"
TEXT = "text"


def _cosine_gradient(v, t, similarity, v_norms, t_norms, wrt: str):
    """d cos / dv (wrt IMAGE) or d cos / dt (wrt TEXT), (B, ..., D), for each row of v (B, D).

    The cosines are with each row of the stack t (..., D); ``similarity``
    holds them, clamped, as (B, ...), and ``v_norms`` and ``t_norms`` the
    row norms of v and of t, as ``cosine_similarity`` gives them.
    """
    spread = (1,) * (t.ndim - 1)
    nv = np.reshape(v_norms, (len(v), *spread, 1))
    v = v.reshape(len(v), *spread, v.shape[-1])
    nt = t_norms[..., None]
    similarity = similarity[..., None]
    if wrt == IMAGE:
        return t / (nv * nt) - similarity * v / (nv * nv)
    return v / (nv * nt) - similarity * t / (nt * nt)


def _gradient_coefficients(grid: SimilarityGrid, breakdown: LossBreakdown):
    """dL/ds from the breakdown's targets, k+, k- and alpha, (B, N, K); 0 off both term lists.

    ``fine`` masks the fine-grained list: every entry but the target
    class's, of which only k+.  ``margin`` indexes the margin list by
    (row, class, pick): each class's argmax, k- for the target.  Both read
    their terms in (class, subclass) order, as ``total_loss`` does, so
    (t, k+) is entry t * K of the one and (t, k-) entry t of the other.
    The fine-grained coefficients are written first, then the margin ones added.
    """
    b, n, k = grid.values.shape
    t = breakdown.target_class
    rows = np.arange(b)
    z = grid.logits
    fine = np.ones(z.shape, dtype=bool)
    fine[rows, t] = np.arange(k) == breakdown.closest_subclass[:, None]
    picks = grid.best_subclasses.copy()
    picks[rows, t] = breakdown.farthest_subclass
    margin = (rows[:, None], np.arange(n), picks)
    coeff = np.zeros(z.shape)
    delta = numerics.stable_softmax(z[fine].reshape(b, -1))
    delta[rows, t * k] -= 1.0
    # Written, not added: no entry is -0.0, so this is 0.0 + the entry's bits.
    coeff[fine] = (breakdown.alpha[:, None] * delta / grid.temperature).reshape(-1)
    delta = numerics.stable_softmax(z[margin])
    delta[rows, t] -= 1.0
    coeff[margin] += delta / grid.temperature
    return coeff


def loss_gradients(grid: SimilarityGrid, breakdown: LossBreakdown, wrt=(IMAGE, TEXT)):
    """Exact gradients of each sample's total loss w.r.t. its V and every T[i, k].

    ``grid`` is what ``similarity_grid`` gave for a batch of embeddings V
    (B, D) and one descriptor stack T (N, K, D), and ``breakdown`` what
    ``total_loss`` returned for it; k+, k- and alpha, and the rivals'
    argmax, are taken as constants, matching how the loss is defined
    between selection flips.  Returns (dL/dV, dL/dT), (B, D) and
    (B, N, K, D), row b being the gradients of sample b's loss alone.
    Only the sides named in ``wrt`` (IMAGE, TEXT) are built; the other
    is None.
    """
    if grid.stack is None or grid.stack.ndim != 3:
        raise ContractViolation(
            "loss_gradients needs a grid that similarity_grid built from (B, D) "
            "embeddings and one (N, K, D) descriptor stack"
        )
    b, n, k = grid.values.shape
    if breakdown.total.shape != (b,):
        raise ContractViolation(f"breakdown has {breakdown.total.size} rows, the grid {b}")
    coeff = _gradient_coefficients(grid, breakdown)[..., None]
    inputs = (grid.embeddings, grid.stack, grid.values, grid.embedding_norms, grid.stack_norms)
    grad_v = grad_t = None
    if IMAGE in wrt:
        gv = _cosine_gradient(*inputs, IMAGE)
        # A running sum in (class, subclass) order, as a loop adds: np.sum may add pairwise.
        grad_v = np.cumsum((coeff * gv).reshape(b, n * k, -1), axis=1)[:, -1]
    if TEXT in wrt:
        grad_t = coeff * _cosine_gradient(*inputs, TEXT)
    return grad_v, grad_t
