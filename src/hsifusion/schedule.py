"""Noise schedule: per-step variances and everything derived from them.

Arrays are float64 whatever the tensors' width; the late-schedule
cumulative products are ~e^-10 and deserve the precision. ``alpha_bars`` is
indexed directly by timestep with ``alpha_bars[0] == 1``, so the posterior
coefficients need no special-casing at t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance sequence beta_t plus precomputed derived quantities.

    ``betas[i]`` holds beta_{i+1}; every accessor takes the 1-based timestep.
    """

    T: int
    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)
    one_minus_alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.shape != (self.T,):
            raise ValueError(f"expected {self.T} betas, got shape {betas.shape}")
        if np.any(betas <= 0) or np.any(betas >= 1):
            raise ValueError("betas must lie strictly inside (0, 1)")
        object.__setattr__(self, "betas", betas)

        alpha_bars = np.empty(self.T + 1, dtype=np.float64)
        alpha_bars[0] = 1.0
        alpha_bars[1:] = np.cumprod(1.0 - betas)
        object.__setattr__(self, "alpha_bars", alpha_bars)

        # 1 - ab_t by the recurrence om_t = om_{t-1} + b_t ab_{t-1};
        # subtracting ab_t from 1 directly would cancel badly for small t
        om = np.concatenate([[0.0], np.cumsum(betas * alpha_bars[:-1])])
        object.__setattr__(self, "one_minus_alpha_bars", om)

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.T:
            raise IndexError(f"timestep {t} outside [1, {self.T}]")

    def beta(self, t: int) -> float:
        self._check_t(t)
        return float(self.betas[t - 1])

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.T:
            raise IndexError(f"timestep {t} outside [0, {self.T}]")
        return float(self.alpha_bars[t])


def linear_schedule(T: int, beta_end: float) -> NoiseSchedule:
    """beta_t = beta_end * t / T for t = 1..T.

    The ramp starts at beta_1 = beta_end / T rather than at an inclusive zero:
    a zero-variance first step would be a no-op with an ill-defined reverse
    kernel.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0.0 < beta_end < 1.0:
        raise ValueError(f"beta_end must lie in (0, 1), got {beta_end}")
    t = np.arange(1, T + 1, dtype=np.float64)
    return NoiseSchedule(T=T, betas=beta_end * t / T)


def marginal_coeffs(sched: NoiseSchedule, t: int) -> tuple[float, float]:
    """(sqrt(alpha_bar_t), sqrt(1 - alpha_bar_t)): the closed-form marginal

    x_t = sqrt(alpha_bar_t) * x_0 + sqrt(1 - alpha_bar_t) * noise.
    """
    sched._check_t(t)
    return float(np.sqrt(sched.alpha_bars[t])), float(np.sqrt(sched.one_minus_alpha_bars[t]))


def posterior_coeffs(sched: NoiseSchedule, t: int) -> tuple[float, float, float]:
    """(coef_xt, coef_x0, var) of the Gaussian posterior q(x_{t-1} | x_t, x_0).

    mean = coef_xt * x_t + coef_x0 * x_0, variance = var. At t = 1 the
    posterior collapses onto x_0: (0, 1, 0).
    """
    sched._check_t(t)
    beta = float(sched.betas[t - 1])
    prev_om, om = (float(v) for v in sched.one_minus_alpha_bars[t - 1:t + 1])
    return (
        math.sqrt(1.0 - beta) * prev_om / om,
        math.sqrt(float(sched.alpha_bars[t - 1])) * beta / om,
        prev_om / om * beta,
    )
