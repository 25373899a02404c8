import numpy as np
import pytest

from hsifusion.schedule import NoiseSchedule, linear_schedule, marginal_coeffs, posterior_coeffs

from oracles import bayes_posterior_1d, posterior_coeffs_vectorised


@pytest.fixture(scope="module")
def sched2000():
    return linear_schedule(2000, 0.01)


class TestLinearSchedule:
    def test_endpoints(self, sched2000):
        assert sched2000.beta(1) == pytest.approx(5e-6, rel=1e-12)
        assert sched2000.beta(2000) == pytest.approx(0.01, rel=1e-12)

    def test_single_step_algebra(self):
        s = linear_schedule(1, 0.5)
        assert s.alpha_bar(1) == pytest.approx(0.5)
        assert posterior_coeffs(s, 1)[2] == 0.0

    def test_cumulative_product_matches_direct_oracle(self, sched2000):
        direct = 1.0
        for beta in sched2000.betas:
            direct *= 1.0 - beta
        assert sched2000.alpha_bar(2000) == direct  # same fp operation order
        assert 1e-5 < sched2000.alpha_bar(2000) < 2e-4  # ~ e^-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            linear_schedule(0, 0.01)
        with pytest.raises(ValueError):
            linear_schedule(10, 1.0)
        with pytest.raises(ValueError):
            linear_schedule(10, 0.0)

    @pytest.mark.parametrize("T,beta_end,match", [
        (True, 0.1, "T must be an integer, got True"), (10.0, 0.1, "T must be an integer"),
        ("10", 0.1, "T must be an integer"), (10, "0.1", "beta_end must lie in"),
        (10, None, "beta_end must lie in"),
    ])
    def test_non_numbers_named(self, T, beta_end, match):
        # True built a one-step schedule with T=True; the strings and None
        # raised a bare TypeError
        with pytest.raises(ValueError, match=match):
            linear_schedule(T, beta_end)

    def test_custom_betas_validated(self):
        with pytest.raises(ValueError):
            NoiseSchedule(T=3, betas=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            NoiseSchedule(T=2, betas=np.array([0.1, 1.5]))

    @pytest.mark.parametrize("T,betas,match", [
        (True, [0.1], "T must be an integer, got True"),
        (2.0, [0.1, 0.2], "T must be an integer, got 2.0"),
        (0, [], "T must be >= 1, got 0"),
    ])
    def test_schedule_T_checked(self, T, betas, match):
        with pytest.raises(ValueError, match=match):
            NoiseSchedule(T=T, betas=np.array(betas))


class TestMarginalCoeffs:
    def test_quarter_alpha_bar(self):
        # one step with beta = 0.75 leaves alpha_bar = 0.25
        s = linear_schedule(1, 0.75)
        c_sig, c_noise = marginal_coeffs(s, 1)
        assert c_sig == pytest.approx(0.5, abs=1e-12)
        assert c_noise == pytest.approx(np.sqrt(0.75), abs=1e-12)

    def test_first_step_small_beta(self, sched2000):
        c_sig, c_noise = marginal_coeffs(sched2000, 1)
        assert c_sig == pytest.approx(0.9999975, abs=1e-7)
        assert c_noise == pytest.approx(0.0022360, abs=1e-6)

    def test_squares_sum_to_one_for_every_t(self, sched2000):
        for t in range(1, 2001):
            c_sig, c_noise = marginal_coeffs(sched2000, t)
            assert c_sig**2 + c_noise**2 == pytest.approx(1.0, abs=1e-6)

    def test_signal_coefficient_strictly_decreasing(self, sched2000):
        coeffs = [marginal_coeffs(sched2000, t)[0] for t in range(1, 2001)]
        assert all(a > b for a, b in zip(coeffs, coeffs[1:]))

    def test_out_of_range(self, sched2000):
        with pytest.raises(IndexError):
            marginal_coeffs(sched2000, 0)
        with pytest.raises(IndexError):
            marginal_coeffs(sched2000, 2001)


class TestPosteriorCoeffs:
    def test_collapse_at_t1(self, sched2000):
        c_xt, c_x0, var = posterior_coeffs(sched2000, 1)
        assert c_xt == 0.0
        assert c_x0 == pytest.approx(1.0, abs=1e-12)
        assert var == 0.0

    def test_matches_scalar_bayes(self):
        # two-step chain beta = (0.1, 0.2): coefficients must reproduce the
        # completing-the-square posterior q(x1 | x2, x0)
        s = NoiseSchedule(T=2, betas=np.array([0.1, 0.2]))
        c_xt, c_x0, var = posterior_coeffs(s, 2)
        x2, x0 = 0.7, -0.3
        mean_oracle, var_oracle = bayes_posterior_1d(0.1, 0.2, x2, x0)
        assert c_xt * x2 + c_x0 * x0 == pytest.approx(mean_oracle, rel=1e-12)
        assert var == pytest.approx(var_oracle, rel=1e-12)

    def test_mean_preservation_with_zero_noise(self, sched2000):
        # substituting x_t = sqrt(ab_t) x0 (zero noise) must give the mean
        # sqrt(ab_{t-1}) x0
        x0 = 1.7
        for t in range(1, 2001, 131):
            c_xt, c_x0, _ = posterior_coeffs(sched2000, t)
            xt = np.sqrt(sched2000.alpha_bar(t)) * x0
            mean = c_xt * xt + c_x0 * x0
            assert mean == pytest.approx(np.sqrt(sched2000.alpha_bar(t - 1)) * x0, abs=1e-6)

    def test_out_of_range(self, sched2000):
        with pytest.raises(IndexError):
            posterior_coeffs(sched2000, 2001)

    @pytest.mark.parametrize("T, beta_end", [(2000, 0.01), (1000, 0.01), (200, 0.05), (7, 0.3)])
    def test_bit_identical_to_vectorised_formulas(self, T, beta_end):
        s = linear_schedule(T, beta_end)
        want = posterior_coeffs_vectorised(s.betas, s.alpha_bars, s.one_minus_alpha_bars)
        for t in range(1, T + 1):
            assert posterior_coeffs(s, t) == tuple(float(w[t - 1]) for w in want), t


class TestInvariants:
    def test_alpha_bar_recurrence_exact(self, sched2000):
        ab = sched2000.alpha_bars
        om = sched2000.one_minus_alpha_bars
        for t in range(1, 2001):
            assert ab[t] == ab[t - 1] * (1.0 - sched2000.betas[t - 1])
            assert om[t] == om[t - 1] + sched2000.betas[t - 1] * ab[t - 1]

    def test_posterior_variance_bounded_by_beta(self, sched2000):
        var = np.array([posterior_coeffs(sched2000, t)[2] for t in range(1, 2001)])
        assert np.all(var >= 0)
        assert np.all(var <= sched2000.betas)

    def test_alpha_bar_strictly_decreasing(self, sched2000):
        assert np.all(np.diff(sched2000.alpha_bars) < 0)

    def test_randomized_schedules_keep_invariants(self, rng):
        for _ in range(20):
            T = int(rng.integers(1, 40))
            beta_end = float(rng.uniform(0.001, 0.999))
            s = linear_schedule(T, beta_end)
            assert np.all(s.betas > 0) and np.all(s.betas < 1)
            assert np.all(np.diff(s.betas) >= 0)
            assert s.alpha_bars[0] == 1.0
            var = np.array([posterior_coeffs(s, t)[2] for t in range(1, T + 1)])
            assert np.all(var <= s.betas + 1e-15)
