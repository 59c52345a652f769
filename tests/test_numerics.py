"""Vector guards, cosine similarity, and the log-sum-exp family."""

import math

import numpy as np
import pytest

from metd import numerics
from metd.errors import ContractViolation, ZeroNormError


def test_cosine_reference_value():
    # 11 / (5 * sqrt(5)), checked against extended-precision arithmetic
    value = numerics.cosine_similarity([1.0, 2.0], [3.0, 4.0])
    np.testing.assert_allclose(value, 0.9838699100999074, rtol=0, atol=1e-15)


def test_cosine_commutes_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(200):
        dim = int(rng.integers(1, 12))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        assert numerics.cosine_similarity(a, b) == numerics.cosine_similarity(b, a)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        dim = int(rng.integers(1, 12))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        base = numerics.cosine_similarity(a, b)
        for scale in (1e-6, 0.5, 3.0, 1e6):
            np.testing.assert_allclose(
                numerics.cosine_similarity(scale * a, b), base, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                numerics.cosine_similarity(a, scale * b), base, rtol=0, atol=1e-12
            )


def test_cosine_stays_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = rng.normal(size=3) * 10.0 ** rng.integers(-8, 9)
        value = numerics.cosine_similarity(a, a * float(rng.uniform(0.5, 2.0)))
        assert -1.0 <= value <= 1.0


def test_cosine_parallel_and_orthogonal():
    assert numerics.cosine_similarity([2.0, 0.0], [5.0, 0.0]) == 1.0
    np.testing.assert_allclose(
        numerics.cosine_similarity([1.0, 0.0], [0.0, 3.0]), 0.0, atol=1e-15
    )
    assert numerics.cosine_similarity([1.0, 0.0], [-4.0, 0.0]) == -1.0


def test_cosine_rejects_zero_vector():
    with pytest.raises(ZeroNormError):
        numerics.cosine_similarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ZeroNormError):
        numerics.cosine_similarity([1.0, 0.0], [0.0, 0.0])


def test_cosine_rejects_dimension_mismatch():
    with pytest.raises(ContractViolation):
        numerics.cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("dim", [2, 16, 17, 64])
@pytest.mark.parametrize("shape", [(4, 3), (5,)])
def test_stacked_cosine_equals_per_row_calls_bitwise(dim, shape):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        a = rng.normal(size=dim)
        stack = rng.normal(size=(*shape, dim)) * 10.0 ** rng.integers(-3, 4)
        flat = stack.reshape(-1, dim)
        rows = np.array([numerics.cosine_similarity(a, row) for row in flat])
        # the scalar formula with np.dot, as the cosine was computed before
        # it took stacks
        scalar = np.array([
            min(1.0, max(-1.0, float(np.dot(a, row))
                         / (math.sqrt(float(np.dot(a, a))) * math.sqrt(float(np.dot(row, row))))))
            for row in flat
        ])
        assert np.array_equal(rows, scalar)
        assert np.array_equal(numerics.cosine_similarity(a, stack), rows.reshape(shape))


def test_stacked_cosine_rejects_bad_rows():
    stack = np.ones((3, 2, 4))
    stack[1, 0] = 0.0
    with pytest.raises(ZeroNormError):
        numerics.cosine_similarity(np.ones(4), stack)
    stack[1, 0] = np.nan
    with pytest.raises(ContractViolation):
        numerics.cosine_similarity(np.ones(4), stack)
    with pytest.raises(ContractViolation):
        numerics.cosine_similarity(np.ones(4), np.ones((3, 2, 5)))


def test_vector_guards():
    with pytest.raises(ContractViolation):
        numerics.as_vector([], "x")
    with pytest.raises(ContractViolation):
        numerics.as_vector([[1.0, 2.0]], "x")
    with pytest.raises(ContractViolation):
        numerics.as_vector([1.0, np.nan], "x")
    with pytest.raises(ContractViolation):
        numerics.as_vector([1.0, np.inf], "x")


def test_vector_norm_positive_and_guarded():
    np.testing.assert_allclose(numerics.vector_norm([3.0, 4.0]), 5.0, rtol=0, atol=0)
    with pytest.raises(ZeroNormError):
        numerics.vector_norm([0.0, 0.0, 0.0])


def test_log_sum_exp_reference_value():
    # 10 + log1p(exp(-10)), checked against extended-precision arithmetic
    value = numerics.log_sum_exp(np.array([0.0, 10.0]))
    np.testing.assert_allclose(value, 10.000045398899217, rtol=0, atol=1e-12)


def test_log_sum_exp_single_element_exact():
    for x in (-700.0, -1.5, 0.0, 3.25, 700.0):
        assert numerics.log_sum_exp(np.array([x])) == x


def test_log_sum_exp_no_overflow():
    result = numerics.log_sum_exp(np.array([700.0, 700.0, 700.0]))
    assert np.isfinite(result)
    np.testing.assert_allclose(result, 700.0 + np.log(3.0), rtol=0, atol=1e-12)
    assert np.isfinite(numerics.log_sum_exp(np.array([-700.0, 700.0])))


def test_log_sum_exp_matches_naive_in_safe_range():
    rng = np.random.default_rng(3)
    for _ in range(300):
        values = rng.normal(scale=5.0, size=int(rng.integers(1, 10)))
        naive = np.log(np.sum(np.exp(values)))
        np.testing.assert_allclose(
            numerics.log_sum_exp(values), naive, rtol=0, atol=1e-12
        )


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    for _ in range(200):
        values = rng.normal(scale=10.0, size=int(rng.integers(2, 8)))
        base = numerics.stable_softmax(values)
        for shift in (-100.0, -7.5, 0.0, 42.0, 100.0):
            np.testing.assert_allclose(
                numerics.stable_softmax(values + shift), base, rtol=0, atol=1e-12
            )


def test_softmax_sums_to_one_and_stays_finite():
    rng = np.random.default_rng(5)
    for _ in range(200):
        values = rng.normal(scale=200.0, size=int(rng.integers(1, 8)))
        probs = numerics.stable_softmax(values)
        assert np.all(np.isfinite(probs))
        assert np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=0, atol=1e-12)
