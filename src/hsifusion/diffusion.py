"""Forward-process sampling, posterior means, and the training loss.

The array functions here are plain numpy (they move data, not gradients);
``simple_loss`` is the one graph-building piece, since its gradient drives
training. It is a single tape primitive over its two inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, _check_same_shape, as_tensor, from_op
from .schedule import NoiseSchedule, marginal_coeffs, posterior_coeffs


def q_sample(x0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Noised image x_t = sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps."""
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    _check_same_shape(x0, eps, "q_sample")
    c_sig, c_noise = marginal_coeffs(sched, t)
    return c_sig * x0 + c_noise * eps


def posterior_mean(xt: np.ndarray, x0: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
    """Mean of q(x_{t-1} | x_t, x_0)."""
    xt = np.asarray(xt)
    x0 = np.asarray(x0)
    _check_same_shape(xt, x0, "posterior_mean")
    c_xt, c_x0, _ = posterior_coeffs(sched, t)
    return c_xt * xt + c_x0 * x0


def posterior_mean_from_eps(
    xt: np.ndarray, eps: np.ndarray, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """Same posterior mean with x_0 eliminated via the forward marginal:

    (x_t - beta_t / sqrt(1 - ab_t) * eps) / sqrt(1 - beta_t).
    """
    xt = np.asarray(xt)
    eps = np.asarray(eps)
    _check_same_shape(xt, eps, "posterior_mean_from_eps")
    beta = sched.beta(t)
    _, c_noise = marginal_coeffs(sched, t)
    return (xt - beta / c_noise * eps) / math.sqrt(1.0 - beta)


def eps_from_x0(
    xt: np.ndarray, x0_hat: np.ndarray, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """Noise implied by a clean-cube estimate through the forward marginal:

    (x_t - sqrt(ab_t) * x0_hat) / sqrt(1 - ab_t).
    """
    xt = np.asarray(xt)
    x0_hat = np.asarray(x0_hat)
    _check_same_shape(xt, x0_hat, "eps_from_x0")
    c_sig, c_noise = marginal_coeffs(sched, t)
    return (xt - c_sig * x0_hat) / c_noise


def simple_loss(eps_true, eps_pred, p: int = 2) -> Tensor:
    """Mean |eps_true - eps_pred|^p over all elements, p in {1, 2}.

    Mean rather than sum, so the magnitude does not scale with patch size.
    One tape node whose parents are the two inputs; with d = eps_true -
    eps_pred, the mean's adjoint is spread evenly and times sign(d) for
    p = 1 or 2d for p = 2.
    """
    if p not in (1, 2):
        raise ValueError(f"loss exponent p must be 1 or 2, got {p}")
    eps_true = as_tensor(eps_true)
    eps_pred = as_tensor(eps_pred)
    _check_same_shape(eps_true, eps_pred, "simple_loss")
    d = eps_true.data - eps_pred.data

    def bwd(g):
        g = np.full_like(d, g.reshape(()) / d.size)
        if p == 1:
            g *= np.sign(d)
        else:
            g *= d
            g += g
        if eps_true.requires_grad:
            eps_true.accumulate_grad(g)
        if eps_pred.requires_grad:
            eps_pred.accumulate_grad(-g)

    value = (np.abs(d) if p == 1 else d * d).mean()
    return from_op(np.asarray(value, dtype=d.dtype), (eps_true, eps_pred), bwd)


def step_kl(
    xt: np.ndarray, x0: np.ndarray, mean_pred: np.ndarray, t: int, sched: NoiseSchedule
) -> float:
    """KL between the true posterior and a predicted-mean Gaussian at step t.

    Both sides share variance beta~_t, so the divergence reduces to
    ||posterior_mean - mean_pred||_F^2 / (2 * beta~_t). Diagnostic only;
    undefined at t = 1 where beta~_1 = 0.
    """
    if t < 2:
        raise ValueError("step_kl is undefined at t = 1 (zero posterior variance)")
    mean_pred = np.asarray(mean_pred)
    _check_same_shape(np.asarray(xt), mean_pred, "step_kl")
    mu = posterior_mean(xt, x0, t, sched)
    var = posterior_coeffs(sched, t)[2]
    return float(np.sum((mu - mean_pred) ** 2) / (2.0 * var))
