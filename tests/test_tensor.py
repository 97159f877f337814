import numpy as np
import pytest

from sysident import Rng
from sysident.errors import ParameterError


class TestRng:
    def test_gaussian_std_zero_is_constant(self):
        t = Rng(1).gaussian((5, 5), mean=2.5, std=0.0)
        assert np.array_equal(t, np.full((5, 5), 2.5))

    def test_same_seed_bit_identical(self):
        a = Rng(42).gaussian((100,))
        b = Rng(42).gaussian((100,))
        assert np.array_equal(a, b)

    def test_large_sample_moments(self):
        x = Rng(7).gaussian((10 ** 6,))
        assert abs(x.mean()) < 0.005
        assert abs(x.std() - 1.0) < 0.005

    def test_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            Rng(0).gaussian((3,), std=-1.0)

    def test_different_seeds_differ(self):
        a = Rng(1).gaussian((100,))
        b = Rng(2).gaussian((100,))
        assert not np.array_equal(a, b)

    def test_split_streams_are_independent_and_reproducible(self):
        r1 = Rng(11)
        c1, c2 = r1.split(), r1.split()
        assert not np.array_equal(c1.gaussian(50), c2.gaussian(50))
        r2 = Rng(11)
        d1 = r2.split()
        assert np.array_equal(Rng(11).split().gaussian(50), d1.gaussian(50))

    def test_state_round_trip(self):
        r = Rng(4)
        r.gaussian(10)
        state = r.get_state()
        a = r.gaussian(10)
        r.set_state(state)
        assert np.array_equal(r.gaussian(10), a)

