"""Similarity-grid losses, the count-based modulating factor, and gradients."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from metd import losses
from metd.errors import ContractViolation

mp.mp.dps = 50


def _random_grid(rng, n=None, k=None, tau=None):
    """A batch-of-one grid, (1, n, k)."""
    n = n if n is not None else int(rng.integers(2, 7))
    k = k if k is not None else int(rng.integers(1, 5))
    tau = tau if tau is not None else float(10.0 ** rng.uniform(-2.0, 0.0))
    values = rng.uniform(-1.0, 1.0, size=(1, n, k))
    return losses.SimilarityGrid(values=values, temperature=tau)


def _one_loss(grid, target, counts):
    """total_loss of a batch-of-one grid against one target with its (K,) counts."""
    return losses.total_loss(grid, np.array([target]), np.array([counts]))


def _alpha(counts, closest):
    """modulating_factor of one sample's (K,) counts."""
    return losses.modulating_factor(np.array([counts]), np.array([closest]))[0]


def _clip_ce(sims, target, tau):
    """CLIP's contrastive cross-entropy over one similarity per class: total_loss at K = 1."""
    grid = losses.SimilarityGrid(values=np.reshape(sims, (1, -1, 1)), temperature=tau)
    return _one_loss(grid, target, [1]).fg[0]


def test_similarity_grid_validation():
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([0.1, 0.2]), temperature=0.1)
    with pytest.raises(ContractViolation, match=r"\(B, N, K\)"):
        losses.SimilarityGrid(values=np.array([[0.1, 0.2]]), temperature=0.1)
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([[[1.5]]]), temperature=0.1)
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([[[np.nan]]]), temperature=0.1)
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([[[0.5]]]), temperature=0.0)
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([[[0.5]]]), temperature=-1.0)


@pytest.mark.parametrize("tau", [1e-320, 5e-309])
def test_a_temperature_whose_reciprocal_overflows_is_rejected(tau):
    # Positive and finite, but values / tau would overflow to inf: the error
    # names the temperature, and no overflow warning is raised first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match="1/temperature overflows"):
            losses.SimilarityGrid(values=np.array([[[0.5]]]), temperature=tau)
    # The smallest normal float still has a finite reciprocal.
    losses.SimilarityGrid(values=np.array([[[0.5]]]), temperature=2.2250738585072014e-308)


def test_a_grid_is_a_batch_against_one_descriptor_stack():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, 2, 4))
    assert losses.similarity_grid(rng.normal(size=(2, 4)), stack, 0.5).values.shape == (2, 3, 2)
    # A single embedding goes in as a batch of one, and stacks of stacks are not taken.
    for v, stacks in ((rng.normal(size=4), stack), (rng.normal(size=4), stack[None]),
                      (rng.normal(size=(2, 4)), stack[None]), (1.0, stack)):
        with pytest.raises(ContractViolation, match=r"a \(B, D\) batch takes one 3-D stack"):
            losses.similarity_grid(v, stacks, 0.5)


def test_selection_breaks_ties_toward_lowest_index():
    grid = losses.SimilarityGrid(
        values=np.array([[[0.3, 0.7, 0.7], [0.2, 0.2, 0.2]]]), temperature=0.1
    )
    counts = np.ones(3, dtype=np.int64)
    assert _one_loss(grid, 0, counts).closest_subclass.tolist() == [1]
    assert _one_loss(grid, 0, counts).farthest_subclass.tolist() == [0]
    assert _one_loss(grid, 1, counts).closest_subclass.tolist() == [0]
    assert _one_loss(grid, 1, counts).farthest_subclass.tolist() == [0]
    with pytest.raises(ContractViolation, match="out of range"):
        _one_loss(grid, 2, counts)


def test_single_subclass_reduces_to_plain_cross_entropy():
    # With one subclass per class the fine-grained term list is exactly the
    # class score vector and alpha is exactly 1, so the fine-grained loss is
    # CLIP's contrastive cross-entropy, held to the 50-digit reference.
    rng = np.random.default_rng(10)
    for _ in range(1000):
        grid = _random_grid(rng, k=1)
        target = int(rng.integers(grid.n_classes))
        plain = float(_mp_clip(grid.values[0, :, 0], grid.temperature, target))
        counts = np.array([int(rng.integers(1, 50))])
        breakdown = _one_loss(grid, target, counts)
        assert breakdown.alpha[0] == 1.0
        np.testing.assert_allclose(breakdown.fg[0], plain, rtol=1e-12, atol=0)


def test_modulating_factor_equal_counts_is_one():
    for k in range(1, 11):
        for count in (1, 2, 7, 31):
            counts = np.full(k, count)
            for closest in range(k):
                np.testing.assert_allclose(_alpha(counts, closest), 1.0, rtol=0, atol=1e-12)


def test_modulating_factor_reference_value():
    # (e / (e + e^(1/3))) * 4, checked against extended-precision arithmetic
    value = _alpha([1, 3], 0)
    np.testing.assert_allclose(value, 2.6430254750632687, rtol=0, atol=1e-9)


def test_modulating_factor_favors_rare_subclass():
    for a in range(1, 21):
        for b in range(1, 21):
            counts = np.array([a, b])
            rare = _alpha(counts, int(np.argmin(counts)))
            common = _alpha(counts, int(np.argmax(counts)))
            assert rare >= common


def test_modulating_factor_positive_and_finite():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        counts = rng.integers(0, 40, size=k)
        closest = int(rng.integers(k))
        counts[closest] = int(rng.integers(1, 40))
        alpha = _alpha(counts, closest)
        assert math.isfinite(alpha)
        assert alpha > 0.0


def test_modulating_factor_validation():
    with pytest.raises(ContractViolation):
        _alpha([0, 3], 0)  # assigned count zero
    with pytest.raises(ContractViolation):
        _alpha([-1, 3], 1)
    with pytest.raises(ContractViolation):
        _alpha([1.5, 3.0], 0)
    with pytest.raises(ContractViolation):
        _alpha([1, 3], 2)
    with pytest.raises(ContractViolation):
        losses.modulating_factor(np.zeros((1, 0), dtype=np.int64), np.array([0]))
    # Counts are one (B, K) integer row per sample: no (K,) vector, no floats.
    with pytest.raises(ContractViolation, match=r"\(B, K\)"):
        losses.modulating_factor(np.array([1, 3]), 0)
    with pytest.raises(ContractViolation, match="integer"):
        _alpha([1.0, 3.0], 0)


def test_fine_grained_loss_monotone_in_target_similarity():
    # Equal counts on the closest subclass (always 0 here): alpha stays 1.
    previous = None
    for s in np.linspace(0.1, 0.9, 9):
        grid = losses.SimilarityGrid(
            values=np.array([[[s, 0.0], [0.3, 0.1], [0.2, 0.0]]]), temperature=0.1
        )
        breakdown = _one_loss(grid, 0, [1, 1])
        assert breakdown.alpha[0] == 1.0
        value = breakdown.fg[0]
        if previous is not None:
            assert value < previous
        previous = value


def test_margin_loss_monotone_in_rival_similarity():
    increasing = None
    for s in np.linspace(-0.5, 0.5, 9):
        grid = losses.SimilarityGrid(
            values=np.array([[[0.6, 0.2], [s, -0.9]]]), temperature=0.1
        )
        value = _one_loss(grid, 0, [1, 1]).margin[0]
        if increasing is not None:
            assert value > increasing
        increasing = value
    decreasing = None
    for s in np.linspace(-0.3, 0.55, 9):
        # s stays the minimum of the target row throughout
        grid = losses.SimilarityGrid(
            values=np.array([[[0.6, s], [0.1, -0.9]]]), temperature=0.1
        )
        value = _one_loss(grid, 0, [1, 1]).margin[0]
        if decreasing is not None:
            assert value < decreasing
        decreasing = value


def test_losses_strictly_positive():
    rng = np.random.default_rng(12)
    for _ in range(300):
        grid = _random_grid(rng)
        target = int(rng.integers(grid.n_classes))
        breakdown = _one_loss(grid, target, np.ones(grid.n_subclasses, dtype=np.int64))
        assert breakdown.fg[0] > 0.0
        assert breakdown.margin[0] > 0.0
        assert _clip_ce(grid.values[0, :, 0], target, grid.temperature) > 0.0


def test_single_class_losses_are_zero():
    # With no rival class every softmax puts all its mass on the target.
    assert _clip_ce([0.5], 0, 0.1) == 0.0
    grid = losses.SimilarityGrid(values=np.array([[[0.7, -0.2]]]), temperature=0.05)
    assert _one_loss(grid, 0, [2, 1]).total[0] == 0.0


def test_total_is_sum_of_parts():
    rng = np.random.default_rng(13)
    for _ in range(200):
        grid = _random_grid(rng)
        k = grid.n_subclasses
        target = int(rng.integers(grid.n_classes))
        counts = rng.integers(0, 9, size=k)
        closest = int(grid.best_subclasses[0, target])
        counts[closest] = int(rng.integers(1, 9))
        breakdown = _one_loss(grid, target, counts)
        assert breakdown.total[0] == breakdown.fg[0] + breakdown.margin[0]
        assert breakdown.closest_subclass[0] == closest
        assert breakdown.farthest_subclass[0] == int(np.argmin(grid.values[0, target]))
        assert breakdown.alpha[0] == _alpha(counts, closest)


def _mp_alpha(counts, closest):
    num = mp.exp(1 / mp.mpf(int(counts[closest])))
    den = mp.fsum(mp.exp(1 / mp.mpf(int(c))) for c in counts if c > 0)
    return num / den * mp.mpf(int(np.sum(counts))) / int(counts[closest])


def _mp_neg_log_softmax(z_pos, rivals):
    # log(1 + sum_i e^{z_i - z_pos}): naive exp/sum, no max-shift trick.
    # Taken relative to the positive, because log(den / num) itself rounds
    # to 0 at 50 digits once the positive leads by about 115 nats.
    return mp.log1p(mp.fsum(mp.exp(z - z_pos) for z in rivals))


def _mp_fine_grained(values, tau, target, alpha):
    n, k = values.shape
    closest = int(np.argmax(values[target]))
    t = mp.mpf(tau)
    rivals = [
        mp.mpf(values[i, j]) / t for i in range(n) if i != target for j in range(k)
    ]
    return alpha * _mp_neg_log_softmax(mp.mpf(values[target, closest]) / t, rivals)


def _mp_margin(values, tau, target):
    n, _ = values.shape
    farthest = int(np.argmin(values[target]))
    t = mp.mpf(tau)
    rivals = [mp.mpf(np.max(values[i])) / t for i in range(n) if i != target]
    return _mp_neg_log_softmax(mp.mpf(values[target, farthest]) / t, rivals)


def _mp_clip(sims, tau, target):
    t = mp.mpf(tau)
    rivals = [mp.mpf(s) / t for i, s in enumerate(sims) if i != target]
    return _mp_neg_log_softmax(mp.mpf(sims[target]) / t, rivals)


def test_losses_match_extended_precision_oracle():
    # Naive exp/sum reference at 50 decimal digits (see _mp_neg_log_softmax).
    rng = np.random.default_rng(14)
    for _ in range(500):
        grid = _random_grid(rng)
        values, tau = grid.values[0], grid.temperature
        k = grid.n_subclasses
        target = int(rng.integers(grid.n_classes))
        counts = rng.integers(0, 9, size=k)
        closest = int(grid.best_subclasses[0, target])
        counts[closest] = int(rng.integers(1, 9))
        breakdown = _one_loss(grid, target, counts)
        alpha = _mp_alpha(counts, closest)
        fg = _mp_fine_grained(values, tau, target, alpha)
        margin = _mp_margin(values, tau, target)
        np.testing.assert_allclose(breakdown.alpha[0], float(alpha), rtol=0, atol=1e-12)
        for value, reference in (
            (breakdown.fg[0], fg),
            (breakdown.margin[0], margin),
            (breakdown.total[0], fg + margin),
        ):
            np.testing.assert_allclose(value, float(reference), rtol=0, atol=1e-8)
            # Relative check: a loss that rounds to 0 when the target leads
            # by many nats is within 1e-8 absolutely but not relatively.
            np.testing.assert_allclose(value, float(reference), rtol=1e-12, atol=0)
        sims = rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 7)))
        t2 = int(rng.integers(sims.size))
        clip = _clip_ce(sims, t2, tau)
        reference = float(_mp_clip(sims, tau, t2))
        np.testing.assert_allclose(clip, reference, rtol=0, atol=1e-8)
        np.testing.assert_allclose(clip, reference, rtol=1e-12, atol=0)


def test_losses_finite_at_extreme_temperature_and_similarity():
    values = np.array([[[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]])
    grid = losses.SimilarityGrid(values=values, temperature=1e-4)
    for target in range(3):
        breakdown = _one_loss(grid, target, [1, 1])
        assert math.isfinite(breakdown.total[0])
    assert math.isfinite(_clip_ce([1.0, -1.0], 0, 1e-4))


def _per_pair_pullback(v, stack, target, counts, tau):
    """loss_gradients with the cosine gradients pulled back one (class, subclass) pair at a time."""
    grid = losses.similarity_grid(v[None], stack, tau)
    coeff = losses._gradient_coefficients(grid, _one_loss(grid, target, counts))[0]
    nv = math.sqrt(float(np.dot(v, v)))
    grad_v = np.zeros_like(v)
    grad_t = np.zeros_like(stack)
    for i in range(grid.n_classes):
        for j in range(grid.n_subclasses):
            c = coeff[i, j]
            if c == 0.0:
                continue
            t, s = stack[i, j], grid.values[0, i, j]
            nt = math.sqrt(float(np.dot(t, t)))
            grad_v += c * (t / (nv * nt) - s * v / (nv * nv))
            grad_t[i, j] = c * (v / (nv * nt) - s * t / (nt * nt))
    return grad_v, grad_t


def test_loss_gradients_match_central_differences():
    rng = np.random.default_rng(15)
    h = 1e-6
    for _ in range(5):
        n, k, dim = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 7))
        v = rng.normal(size=dim)
        stack = rng.normal(size=(n, k, dim))
        target = int(rng.integers(n))
        counts = rng.integers(1, 6, size=k)
        tau = float(rng.uniform(0.2, 1.0))
        grid = losses.similarity_grid(v[None], stack, tau)
        grad_v, grad_t = losses.loss_gradients(grid, _one_loss(grid, target, counts))
        grad_v, grad_t = grad_v[0], grad_t[0]
        ref_v, ref_t = _per_pair_pullback(v, stack, target, counts, tau)
        np.testing.assert_allclose(grad_v, ref_v, rtol=0, atol=0)
        np.testing.assert_allclose(grad_t, ref_t, rtol=0, atol=0)

        def loss_at(vec, tensors):
            grid = losses.similarity_grid(vec[None], tensors, tau)
            return _one_loss(grid, target, counts).total[0]

        for idx in range(dim):
            bumped = v.copy()
            bumped[idx] += h
            dipped = v.copy()
            dipped[idx] -= h
            numeric = (loss_at(bumped, stack) - loss_at(dipped, stack)) / (2 * h)
            np.testing.assert_allclose(grad_v[idx], numeric, rtol=1e-4, atol=1e-6)
        flat = stack.reshape(-1)
        picks = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for idx in picks:
            bumped = stack.copy().reshape(-1)
            bumped[idx] += h
            dipped = stack.copy().reshape(-1)
            dipped[idx] -= h
            numeric = (
                loss_at(v, bumped.reshape(stack.shape))
                - loss_at(v, dipped.reshape(stack.shape))
            ) / (2 * h)
            np.testing.assert_allclose(
                grad_t.reshape(-1)[idx], numeric, rtol=1e-4, atol=1e-6
            )


def test_loss_gradients_reject_a_grid_of_another_shape():
    # The embeddings and the stack come from the grid, so only a grid that
    # similarity_grid built from (B, D) embeddings and one stack will do.
    rng = np.random.default_rng(16)
    v = rng.normal(size=4)
    stack = rng.normal(size=(3, 2, 4))
    grid = losses.similarity_grid(v[None], stack, 0.5)
    breakdown = _one_loss(grid, 1, [1, 1])
    assert losses.loss_gradients(grid, breakdown)[1].shape == (1, 3, 2, 4)
    bare = losses.SimilarityGrid(grid.values, grid.temperature)
    stacks = losses.SimilarityGrid(grid.values, grid.temperature, grid.embeddings, stack[None])
    for other in (bare, stacks):
        with pytest.raises(ContractViolation, match=r"one \(N, K, D\) descriptor stack"):
            losses.loss_gradients(other, breakdown)


def test_loss_gradients_reject_a_breakdown_of_another_batch():
    # A one-row breakdown would broadcast against a two-row grid into two
    # rows of gradients; the row counts must agree instead.
    rng = np.random.default_rng(17)
    stack = rng.normal(size=(3, 2, 4))
    pair = losses.similarity_grid(rng.normal(size=(2, 4)), stack, 0.5)
    one = losses.similarity_grid(pair.embeddings[:1], stack, 0.5)
    breakdown = _one_loss(one, 1, [1, 1])
    assert losses.loss_gradients(one, breakdown)[0].shape == (1, 4)
    with pytest.raises(ContractViolation, match="breakdown has 1 rows, the grid 2"):
        losses.loss_gradients(pair, breakdown)
    with pytest.raises(ContractViolation, match="breakdown has 2 rows, the grid 1"):
        losses.loss_gradients(one, losses.total_loss(pair, [0, 1], [[1, 1], [1, 1]]))
