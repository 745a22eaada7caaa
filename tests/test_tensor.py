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

    def test_numpy_integer_count_draws_like_the_equal_int(self):
        a = SeededRng(5)
        b = SeededRng(5)
        assert np.array_equal(a.next_uint64s(np.int64(3)), b.next_uint64s(3))
        assert a.state == b.state

    def test_non_integer_count_rejected_before_drawing(self):
        rng = SeededRng(5)
        before = rng.state
        with pytest.raises(TypeError):
            rng.next_uint64s(2.5)
        assert rng.state == before

    def test_shuffle_is_a_deterministic_permutation(self):
        values = list(range(50))
        a = sorted(values)
        SeededRng(3).shuffle(a)
        b = sorted(values)
        SeededRng(3).shuffle(b)
        assert a == b
        assert sorted(a) == values
        assert a != values  # astronomically unlikely to be identity

    @pytest.mark.parametrize("n", [0, 1, 2, 1341])
    def test_shuffle_swaps_and_draws_as_the_scalar_loop(self, n):
        """One batched draw gives the permutation and end state of one
        ``next_uint64`` per swap, for a list and for an array."""
        want, scalar = list(range(n)), SeededRng(11)
        for i in range(n - 1, 0, -1):
            j = scalar.next_uint64() % (i + 1)
            want[i], want[j] = want[j], want[i]
        for values in (list(range(n)), np.arange(n)):
            rng = SeededRng(11)
            rng.shuffle(values)
            assert list(values) == want
            assert rng.state == scalar.state

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

    def test_scalar_becomes_length_one(self):
        assert as_tensor(3.5).shape == (1,)
