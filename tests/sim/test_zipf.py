"""ZipfSampler: analytic frequencies, determinism, rejection-free draws."""

import math
import random

import pytest

from repro.sim import ZipfSampler
from repro.sim.zipf import _zetan


class TestValidation:
    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, theta=1.0)  # alpha = 1/(1-theta) diverges
        with pytest.raises(ValueError):
            ZipfSampler(10, theta=-0.1)

    def test_probability_range_checked(self):
        zipf = ZipfSampler(4)
        with pytest.raises(ValueError):
            zipf.probability(4)


class TestSmallN:
    def test_single_key_always_rank_zero(self):
        zipf = ZipfSampler(1, theta=0.9, seed=3)
        assert {zipf.sample() for _ in range(50)} == {0}

    def test_two_keys_match_analytic_split(self):
        zipf = ZipfSampler(2, theta=0.8, seed=5)
        draws = [zipf.sample() for _ in range(40_000)]
        freq0 = draws.count(0) / len(draws)
        assert freq0 == pytest.approx(zipf.probability(0), abs=0.01)


class TestAnalyticFrequencies:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.99])
    def test_empirical_matches_analytic(self, theta):
        """Every rank's empirical frequency tracks P(i) ∝ 1/(i+1)^theta.

        Ranks 0 and 1 are exact in the transform; the rest use the
        continuous approximation, so the tolerance is a few percent of
        the analytic mass (plus sampling noise at 60k draws)."""
        n = 10
        zipf = ZipfSampler(n, theta=theta, seed=11)
        draws = 60_000
        counts = [0] * n
        for _ in range(draws):
            counts[zipf.sample()] += 1
        for rank in range(n):
            analytic = zipf.probability(rank)
            empirical = counts[rank] / draws
            assert empirical == pytest.approx(analytic, abs=0.012), rank

    def test_probabilities_sum_to_one(self):
        zipf = ZipfSampler(100, theta=0.9)
        assert sum(zipf.probability(i) for i in range(100)) == \
               pytest.approx(1.0)

    def test_theta_zero_is_uniform(self):
        zipf = ZipfSampler(8, theta=0.0, seed=2)
        counts = [0] * 8
        for _ in range(40_000):
            counts[zipf.sample()] += 1
        for c in counts:
            assert c / 40_000 == pytest.approx(1 / 8, abs=0.01)

    def test_skew_concentrates_the_head(self):
        hot = ZipfSampler(1000, theta=0.99, seed=1)
        cold = ZipfSampler(1000, theta=0.0, seed=1)
        assert hot.probability(0) > 50 * cold.probability(0)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = [ZipfSampler(1000, theta=0.9, seed=7).sample() for _ in range(1)]
        assert a == [ZipfSampler(1000, theta=0.9, seed=7).sample()
                     for _ in range(1)]
        s1 = ZipfSampler(1000, theta=0.9, seed=7)
        s2 = ZipfSampler(1000, theta=0.9, seed=7)
        assert [s1.sample() for _ in range(500)] == \
               [s2.sample() for _ in range(500)]

    def test_external_rng_form_consumes_exactly_one_variate(self):
        """The make_request form: draws ride the driver RNG, one uniform
        per call (rejection-free), so the DES schedule downstream of the
        RNG is a pure function of the seed."""
        zipf = ZipfSampler(1_000_000, theta=0.99)
        rng_a, rng_b = random.Random(13), random.Random(13)
        ranks = [zipf.sample(rng_a) for _ in range(200)]
        # replay: advancing an identical RNG by one random() per draw
        # reproduces the exact sequence
        replay = []
        for _ in range(200):
            u = rng_b.random()
            rng_c = random.Random()
            rng_c.random = lambda u=u: u  # feed the same variate
            replay.append(zipf.sample(rng_c))
        assert ranks == replay

    def test_zetan_cache_shared_across_instances(self):
        before = _zetan.cache_info().hits
        ZipfSampler(5000, theta=0.7)
        ZipfSampler(5000, theta=0.7)
        assert _zetan.cache_info().hits > before

    def test_draws_always_in_range(self):
        zipf = ZipfSampler(37, theta=0.95, seed=9)
        for _ in range(5000):
            assert 0 <= zipf.sample() < 37


class TestZetaClosedForm:
    """``_zetan`` (exact head + Euler–Maclaurin tail) against the oracle:
    a correctly rounded ``math.fsum`` over every explicit term."""

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 10**4, 10**6])
    def test_matches_explicit_sum(self, n, theta):
        oracle = math.fsum(pow(i, -theta) for i in range(1, n + 1))
        got = _zetan(n, theta)
        if theta == 0.0:
            assert got == float(n)
        else:
            assert abs(got - oracle) <= 1e-14 * oracle


class TestRankClamp:
    """``min(rank, n - 1)`` only absorbs float rounding at the top of the
    unit interval: the largest ``u`` below 1.0 still lands on a valid
    rank, the last one."""

    class _TopRng:
        def random(self):
            return math.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [3, 10, 1000, 10**6])
    def test_largest_variate_stays_in_range(self, n, theta):
        rank = ZipfSampler(n, theta=theta).sample(self._TopRng())
        assert rank == n - 1
