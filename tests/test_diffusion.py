import numpy as np
import pytest

from hsifusion.autodiff import Tensor, backward, scale
from hsifusion.diffusion import (
    eps_from_x0,
    posterior_mean,
    posterior_mean_from_eps,
    q_sample,
    simple_loss,
    step_kl,
)
from hsifusion.schedule import NoiseSchedule, linear_schedule, marginal_coeffs, posterior_coeffs

from oracles import (
    assert_grads_match,
    bayes_posterior_1d,
    gaussian_kl_equal_var,
    simple_loss_chain,
    stepwise_chain,
)


@pytest.fixture(scope="module")
def sched():
    return linear_schedule(50, 0.2)


class TestQSample:
    def test_zero_noise(self, sched, rng):
        x0 = rng.normal(size=(2, 4, 4))
        xt = q_sample(x0, 7, np.zeros_like(x0), sched)
        np.testing.assert_allclose(xt, np.sqrt(sched.alpha_bar(7)) * x0, rtol=1e-12)

    def test_quarter_alpha_bar_arithmetic(self):
        s = linear_schedule(1, 0.75)  # alpha_bar_1 = 0.25
        xt = q_sample(np.ones((1, 2, 2)), 1, np.ones((1, 2, 2)), s)
        np.testing.assert_allclose(xt, 0.5 + np.sqrt(0.75), rtol=1e-7)

    def test_shape_mismatch(self, sched, rng):
        with pytest.raises(ValueError, match="shape"):
            q_sample(rng.normal(size=(2, 4, 4)), 3, rng.normal(size=(2, 4, 5)), sched)

    def test_monte_carlo_marginal(self, sched, rng):
        # 10k closed-form draws match (sqrt(ab) x0, sqrt(1-ab)) within 4 SE,
        # and composing the one-step kernel t times matches the same stats
        n, t, x0 = 10_000, 23, 0.8
        x0_arr = np.full((n,), x0)
        draws = q_sample(x0_arr, t, rng.standard_normal(n), sched)
        c_sig, c_noise = marginal_coeffs(sched, t)
        se_mean = c_noise / np.sqrt(n)
        se_std = c_noise / np.sqrt(2 * n)
        assert abs(draws.mean() - c_sig * x0) < 4 * se_mean
        assert abs(draws.std() - c_noise) < 4 * se_std

        chain = stepwise_chain(x0_arr, t, sched.betas, rng)
        assert abs(chain.mean() - c_sig * x0) < 4 * se_mean
        assert abs(chain.std() - c_noise) < 4 * se_std


class TestPosteriorMean:
    def test_collapse_at_t1(self, sched, rng):
        x0 = rng.normal(size=(3, 3))
        xt = rng.normal(size=(3, 3))
        np.testing.assert_allclose(posterior_mean(xt, x0, 1, sched), x0, atol=1e-12)

    def test_zero_noise_substitution(self, sched, rng):
        x0 = rng.normal(size=(2, 5, 5))
        for t in (1, 10, 30, 50):
            xt = q_sample(x0, t, np.zeros_like(x0), sched)
            expected = np.sqrt(sched.alpha_bar(t - 1)) * x0
            np.testing.assert_allclose(posterior_mean(xt, x0, t, sched), expected, atol=1e-6)

    def test_scalar_bayes_brute_force(self):
        s = NoiseSchedule(T=2, betas=np.array([0.13, 0.29]))
        x0, x2 = 0.42, -1.1
        mean_oracle, _ = bayes_posterior_1d(0.13, 0.29, x2, x0)
        got = posterior_mean(np.array([x2]), np.array([x0]), 2, s)
        assert got[0] == pytest.approx(mean_oracle, abs=1e-10)


class TestPosteriorMeanFromEps:
    def test_matches_posterior_mean_for_all_t(self, sched, rng):
        x0 = rng.normal(size=(2, 4, 4))
        for t in range(1, sched.T + 1):
            eps = rng.standard_normal(x0.shape)
            xt = q_sample(x0, t, eps, sched)
            a = posterior_mean(xt, x0, t, sched)
            b = posterior_mean_from_eps(xt, eps, t, sched)
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_zero_noise_algebra(self, sched, rng):
        xt = rng.normal(size=(3, 3))
        t = 12
        expected = xt / np.sqrt(1.0 - sched.beta(t))
        np.testing.assert_allclose(
            posterior_mean_from_eps(xt, np.zeros_like(xt), t, sched), expected, rtol=1e-12
        )

    def test_recovers_x0_at_t1(self, sched, rng):
        x0 = rng.normal(size=(2, 3, 3))
        eps = rng.standard_normal(x0.shape)
        xt = q_sample(x0, 1, eps, sched)
        np.testing.assert_allclose(
            posterior_mean_from_eps(xt, eps, 1, sched), x0, atol=1e-6
        )


class TestFloatWidth:
    def test_float32_arrays_stay_float32(self, sched, rng):
        # the schedule is float64; no coefficient taken from it may promote
        a, b = (rng.normal(size=(2, 3, 3)).astype(np.float32) for _ in range(2))
        outputs = {
            "q_sample": q_sample(a, 7, b, sched),
            "posterior_mean": posterior_mean(a, b, 7, sched),
            "posterior_mean_from_eps": posterior_mean_from_eps(a, b, 7, sched),
            "eps_from_x0": eps_from_x0(a, b, 7, sched),
        }
        assert {k: str(out.dtype) for k, out in outputs.items() if out.dtype != np.float32} == {}


class TestSimpleLoss:
    def test_perfect_prediction(self, rng):
        eps = rng.normal(size=(2, 3, 3))
        assert simple_loss(eps, eps, 1).item() == 0.0
        assert simple_loss(eps, eps, 2).item() == 0.0

    def test_constant_offset_closed_form(self):
        zeros = np.zeros((2, 4, 4))
        pred = np.full((2, 4, 4), -0.75)
        assert simple_loss(zeros, pred, 1).item() == pytest.approx(0.75, rel=1e-6)
        assert simple_loss(zeros, pred, 2).item() == pytest.approx(0.75**2, rel=1e-6)

    def test_unsupported_exponent(self, rng):
        e = rng.normal(size=(2, 2))
        with pytest.raises(ValueError, match="p"):
            simple_loss(e, e, 3)

    def test_gradients(self, rng):
        target = Tensor(rng.normal(size=(2, 3, 3)))
        pred = Tensor(rng.normal(size=(2, 3, 3)) + 3.0, requires_grad=True)
        assert_grads_match(lambda: simple_loss(target, pred, 2), [pred])
        assert_grads_match(lambda: simple_loss(target, pred, 1), [pred])

    def test_target_gradients(self, rng):
        target = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        pred = Tensor(rng.normal(size=(2, 3, 3)) + 3.0, requires_grad=True)
        for p in (1, 2):
            assert_grads_match(lambda: simple_loss(target, pred, p), [target, pred])

    def test_one_node_over_both_inputs(self, op_outputs, rng):
        target = Tensor(rng.normal(size=(2, 3, 3)))
        pred = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        for p in (1, 2):
            op_outputs.clear()
            loss = simple_loss(target, pred, p)
            assert len(op_outputs) == 1 and op_outputs[0] is loss
            assert loss._parents == (target, pred)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("target_grad", [False, True], ids=["target-const", "target-grad"])
    def test_bitwise_equal_to_chain(self, rng, p, dtype, target_grad):
        # the value and adjoints of the sub -> abs/mul -> mean chain, to the
        # bit; the 1/3 weight scales the adjoint as train_step's 1/B does,
        # and the equal band gives d = 0, where sign(d) is 0
        target = Tensor(rng.normal(size=(3, 5, 7)).astype(dtype), requires_grad=target_grad)
        pred = Tensor(rng.normal(size=(3, 5, 7)).astype(dtype), requires_grad=True)
        pred.data[1] = target.data[1]
        loss = simple_loss(target, pred, p)
        backward(scale(loss, 1 / 3))
        value, g_target, g_pred = simple_loss_chain(target.data, pred.data, p,
                                                    np.asarray(dtype(1 / 3)))
        assert loss.dtype == pred.grad.dtype == dtype
        assert loss.data.tobytes() == value.tobytes()
        assert pred.grad.tobytes() == g_pred.tobytes()
        if target_grad:
            assert target.grad.tobytes() == g_target.tobytes()
        else:
            assert target.grad is None


class TestStepKl:
    def test_zero_at_matching_means(self, sched, rng):
        x0 = rng.normal(size=(2, 3, 3))
        eps = rng.standard_normal(x0.shape)
        xt = q_sample(x0, 9, eps, sched)
        mu = posterior_mean(xt, x0, 9, sched)
        assert step_kl(xt, x0, mu, 9, sched) == 0.0

    def test_matches_gaussian_kl_oracle(self, sched):
        t = 17
        x0 = np.array([0.3])
        xt = np.array([0.9])
        mean_pred = np.array([0.1])
        var = posterior_coeffs(sched, t)[2]
        mu = posterior_mean(xt, x0, t, sched)[0]
        oracle = gaussian_kl_equal_var(mu, 0.1, var)
        assert step_kl(xt, x0, mean_pred, t, sched) == pytest.approx(oracle, rel=1e-10)

    def test_quadratic_scaling(self, sched, rng):
        x0 = rng.normal(size=(4,))
        xt = rng.normal(size=(4,))
        mu = posterior_mean(xt, x0, 5, sched)
        err = rng.normal(size=(4,))
        kl1 = step_kl(xt, x0, mu + err, 5, sched)
        kl2 = step_kl(xt, x0, mu + 2 * err, 5, sched)
        assert kl2 == pytest.approx(4 * kl1, rel=1e-9)

    def test_undefined_at_t1(self, sched, rng):
        x = rng.normal(size=(2, 2))
        with pytest.raises(ValueError, match="t = 1"):
            step_kl(x, x, x, 1, sched)

    def test_equals_eps_space_quadratic_form(self, sched, rng):
        # KL with sigma^2 = beta~_t equals
        # beta_t^2 / (2 beta~_t (1-beta_t)(1-ab_t)) * ||eps - eps_hat||_F^2
        x0 = rng.normal(size=(2, 4, 4))
        for t in (2, 11, 29, 50):
            eps = rng.standard_normal(x0.shape)
            eps_hat = rng.standard_normal(x0.shape)
            xt = q_sample(x0, t, eps, sched)
            mean_pred = posterior_mean_from_eps(xt, eps_hat, t, sched)
            kl = step_kl(xt, x0, mean_pred, t, sched)
            beta = sched.beta(t)
            var = posterior_coeffs(sched, t)[2]
            ab = sched.alpha_bar(t)
            coeff = beta**2 / (2 * var * (1 - beta) * (1 - ab))
            quad = coeff * np.sum((eps - eps_hat) ** 2)
            assert kl == pytest.approx(quad, rel=1e-6)
