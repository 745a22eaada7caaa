import numpy as np
import pytest

from riskcast import DataError, DimensionError, NumericalError, ParameterError, SeededRng
from riskcast.tensor import (
    as_tensor,
    derive_seed,
    elementwise,
    float_bits,
    matmul,
    mix64,
    random_tensor,
    reduce,
)


class TestSeededRng:
    def test_equal_seeds_give_bitwise_equal_streams(self):
        a = SeededRng(123456789)
        b = SeededRng(123456789)
        assert [a.next_uint64() for _ in range(1000)] == [b.next_uint64() for _ in range(1000)]

    def test_vectorized_draws_match_scalar_draws(self):
        """The array path must reproduce the scalar stream exactly."""
        a = SeededRng(99)
        b = SeededRng(99)
        scalar = np.array([a.next_float() for _ in range(257)])
        vector = b.next_floats(257)
        assert np.array_equal(scalar, vector)
        assert a.state == b.state

    def test_vectorized_normals_match_scalar_normals(self):
        a = SeededRng(5)
        b = SeededRng(5)
        scalar = np.array([a.normal(1.5, 2.0) for _ in range(64)])
        vector = b.normals(64, 1.5, 2.0)
        assert np.array_equal(scalar, vector)

    def test_shuffle_is_a_deterministic_permutation(self):
        values = list(range(50))
        a = sorted(values)
        SeededRng(3).shuffle(a)
        b = sorted(values)
        SeededRng(3).shuffle(b)
        assert a == b
        assert sorted(a) == values
        assert a != values  # astronomically unlikely to be identity

    def test_uniform_bounds_validated(self):
        with pytest.raises(ParameterError):
            SeededRng(1).uniform(2.0, 1.0)

    def test_normal_sigma_validated(self):
        with pytest.raises(ParameterError):
            SeededRng(1).normals(4, 0.0, -1.0)

    def test_derive_seed_depends_only_on_inputs(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
        assert derive_seed(42, float_bits(0.001)) != derive_seed(42, float_bits(0.01))

    def test_mix64_avalanches_small_inputs(self):
        outputs = {mix64(i) for i in range(100)}
        assert len(outputs) == 100


class TestAsTensor:
    def test_zero_length_dimension_rejected(self):
        with pytest.raises(DimensionError):
            as_tensor(np.zeros((2, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            as_tensor([1.0, np.nan])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            as_tensor([1.0, 2.0, 3.0], shape=(2, 2))

    def test_scalar_becomes_length_one(self):
        assert as_tensor(3.5).shape == (1,)


class TestMatmul:
    def test_identity(self):
        m = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_dot_product_case(self):
        out = matmul([[1.0, 2.0]], [[3.0], [4.0]])
        assert np.array_equal(out, [[11.0]])

    def test_zero_dim_operands_rejected(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros((1, 0)), np.zeros((0, 1)))

    def test_mismatch_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\[2, 3\].*\[2, 2\]"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_associativity_on_random_tensors(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 5))
            c = rng.normal(size=(5, 2))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            np.testing.assert_allclose(left, right, atol=1e-9)


class TestElementwise:
    def test_additive_identity(self):
        assert np.array_equal(elementwise("add", [1.0, 2.0], [0.0, 0.0]), [1.0, 2.0])

    def test_componentwise_mul(self):
        assert np.array_equal(elementwise("mul", [2.0, 3.0], [4.0, 5.0]), [8.0, 15.0])

    def test_self_cancellation(self):
        assert np.array_equal(elementwise("sub", [1.0], [1.0]), [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            elementwise("add", [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_unknown_op(self):
        with pytest.raises(ParameterError):
            elementwise("div", [1.0], [2.0])

    def test_commutes_with_transposition(self):
        rng = np.random.default_rng(12)
        for op in ("add", "sub", "mul"):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(3, 4))
            assert np.array_equal(elementwise(op, a, b).T, elementwise(op, a.T, b.T))


class TestReduce:
    def test_sum_matches_sequential_addition(self):
        assert reduce("sum", [1.0, 2.0, 3.0]) == 6.0

    def test_mean_of_constant(self):
        assert reduce("mean", [5.0, 5.0, 5.0, 5.0]) == 5.0

    def test_max_of_negatives(self):
        assert reduce("max", [-1.0, -7.0]) == -1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            reduce("sum", np.array([]))

    def test_unknown_op(self):
        with pytest.raises(ParameterError):
            reduce("min", [1.0])


class TestRandomTensor:
    def test_degenerate_uniform_interval_gives_zeros(self):
        out = random_tensor(SeededRng(1), (3, 2), ("uniform", 0.0, 0.0))
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_fresh_rngs_reproduce(self):
        a = random_tensor(SeededRng(42), (3,), ("uniform", 0.0, 1.0))
        b = random_tensor(SeededRng(42), (3,), ("uniform", 0.0, 1.0))
        assert np.array_equal(a, b)

    def test_normal_sample_mean(self):
        out = random_tensor(SeededRng(2024), (10_000,), ("normal", 0.0, 1.0))
        assert abs(float(np.mean(out))) < 0.05

    def test_invalid_distribution_params(self):
        with pytest.raises(ParameterError):
            random_tensor(SeededRng(1), (2,), ("normal", 0.0, -1.0))
        with pytest.raises(ParameterError):
            random_tensor(SeededRng(1), (2,), ("uniform", 1.0, 0.0))
        with pytest.raises(ParameterError):
            random_tensor(SeededRng(1), (2,), ("poisson", 1.0, 0.0))

    def test_draws_advance_state(self):
        rng = SeededRng(9)
        a = random_tensor(rng, (4,), ("uniform", 0.0, 1.0))
        b = random_tensor(rng, (4,), ("uniform", 0.0, 1.0))
        assert not np.array_equal(a, b)
