import numpy as np
import pytest

from riskcast import DimensionError, NumericalError, ParameterError, SeededRng
from riskcast.tensor import as_tensor, derive_seed, float_bits, mix64


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
