"""Reverse-process inference: ancestral sampling and skip-step DDIM fusion.

A fused image starts as pure Gaussian noise at the few-band image's
resolution and is denoised over a sub-sequence of timesteps, conditioning on
the two observed images at every step. With sigma = 0 the update is
deterministic given the initial noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor
from .datacube import HsiCube, as_cube_array
from .denoiser import DenoiserConfig, predict_noise
from .diffusion import eps_from_x0
from .ops import bicubic_upsample, concat_channels
from .schedule import NoiseSchedule


@dataclass(frozen=True)
class TauSchedule:
    """Strictly increasing timesteps tau_1 < ... < tau_d = T."""

    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(int(s) for s in self.steps)
        if not steps:
            raise ValueError("tau schedule must be non-empty")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError(f"tau schedule must be strictly increasing, got {steps}")
        if steps[0] < 1:
            raise ValueError(f"tau schedule starts below 1: {steps}")
        object.__setattr__(self, "steps", steps)

    def __len__(self):
        return len(self.steps)


def select_tau(T: int, d: int) -> TauSchedule:
    """Evenly spaced sub-sequence tau_i = round(i*T/d), ending exactly at T."""
    if not 1 <= d <= T:
        raise ValueError(f"need 1 <= d <= T, got d={d}, T={T}")
    steps = sorted({max(1, round(i * T / d)) for i in range(1, d + 1)} | {T})
    return TauSchedule(tuple(steps))


def ddim_sigma(sched: NoiseSchedule, t: int, t_prev: int, mode: str) -> float:
    """Per-transition noise level.

    'zero' is the deterministic sampler. 'posterior' matches the training-time
    reverse variance: for consecutive steps it equals sqrt(beta~_t) and
    generalizes to skipped transitions as
    sigma^2 = (1 - ab_prev) / (1 - ab_t) * (1 - ab_t / ab_prev).
    """
    if mode == "zero":
        return 0.0
    if mode == "posterior":
        if t_prev == 0:
            return 0.0
        ab_t = sched.alpha_bars[t]
        ab_prev = sched.alpha_bars[t_prev]
        var = (1.0 - ab_prev) / (1.0 - ab_t) * (1.0 - ab_t / ab_prev)
        return float(np.sqrt(max(var, 0.0)))
    raise ValueError(f"unknown sigma mode '{mode}' (use 'zero' or 'posterior')")


def ddim_step(
    xt: np.ndarray,
    eps_hat: np.ndarray,
    t: int,
    t_prev: int,
    sigma: float,
    sched: NoiseSchedule,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """One skip-step update from x_t to x_{t_prev} (t_prev may be 0).

    Reconstructs x0_hat = (x_t - sqrt(1-ab_t) * eps_hat) / sqrt(ab_t), then
    moves to sqrt(ab_prev) * x0_hat + sqrt(1 - ab_prev - sigma^2) * eps_hat
    plus sigma * noise. The final transition (t_prev = 0) is noise-free.
    """
    if not 0 <= t_prev < t <= sched.T:
        raise ValueError(f"need 0 <= t_prev < t <= T, got t={t}, t_prev={t_prev}")
    # Python floats and math.sqrt, so the arithmetic stays in the arrays' dtype
    ab_t = sched.alpha_bar(t)
    ab_prev = sched.alpha_bar(t_prev)
    if sigma < 0 or sigma**2 > 1.0 - ab_prev + 1e-12:
        raise ValueError(
            f"sigma^2 = {sigma**2:g} exceeds 1 - alpha_bar_prev = {1 - ab_prev:g}"
        )

    xt = np.asarray(xt)
    eps_hat = np.asarray(eps_hat)
    x0_hat = (xt - math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(ab_t)
    out = math.sqrt(ab_prev) * x0_hat
    direction = math.sqrt(max(1.0 - ab_prev - sigma**2, 0.0))
    if direction > 0:
        out = out + direction * eps_hat
    if sigma > 0 and t_prev > 0:
        if noise is None:
            raise ValueError("stochastic ddim_step needs a noise array")
        out = out + sigma * noise
    return out.astype(xt.dtype, copy=False)


def fuse(
    params,
    cfg: DenoiserConfig,
    sched: NoiseSchedule,
    y,
    z,
    tau: TauSchedule,
    sigma_mode: str = "zero",
    rng_seed: int = 0,
    tile: int | None = None,
    tile_stride: int = 48,
) -> HsiCube:
    """Run the reverse process on an observed pair and return the fused cube.

    ``tile`` switches to overlapping-tile fusion (feather-blended) for scenes
    too large to denoise whole; noise fields are drawn once for the whole
    scene so tiling does not change the per-pixel initialization. A network
    that predicts x0 (``cfg.prediction == "x0"``) has its output turned into
    the implied noise before each DDIM step. Output values are clamped to
    [0, 1].

    The network runs on constant views of ``params``, so inference records
    no tape and the caller's tensors are left as they are. Non-finite values
    in ``y`` or ``z``, or a non-finite network output at some step, raise
    ``ValueError``.
    """
    if tau.steps[-1] != sched.T:
        raise ValueError(f"tau ends at {tau.steps[-1]} but the schedule has T={sched.T}")
    if tile is not None and not 1 <= tile_stride <= tile:
        raise ValueError(
            f"need 1 <= tile_stride <= tile, got tile={tile}, tile_stride={tile_stride}"
        )
    y_arr = as_cube_array(y)
    z_arr = as_cube_array(z)
    for label, arr in (("y", y_arr), ("z", z_arr)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{label} contains non-finite values")
    if y_arr.shape[0] != cfg.bands:
        raise ValueError(f"y has {y_arr.shape[0]} bands, checkpoint expects {cfg.bands}")
    if z_arr.shape[0] != cfg.msi_bands:
        raise ValueError(f"z has {z_arr.shape[0]} bands, checkpoint expects {cfg.msi_bands}")
    H, W = z_arr.shape[1:]
    if (H, W) != (y_arr.shape[1] * cfg.scale, y_arr.shape[2] * cfg.scale):
        raise ValueError(
            f"z size {(H, W)} is not {cfg.scale}x the y size"
            f" {(y_arr.shape[1], y_arr.shape[2])}"
        )

    # zero-copy constants: no network evaluation below records a tape
    params = {n: Tensor(p.data, dtype=p.data.dtype.type) for n, p in params.items()}
    rng = np.random.default_rng(rng_seed)
    dtype = np.float32
    x_init = rng.normal(size=(cfg.bands, H, W)).astype(dtype)
    step_noise = None
    if sigma_mode != "zero":
        step_noise = [
            rng.normal(size=(cfg.bands, H, W)).astype(dtype) for _ in range(len(tau) - 1)
        ]

    # condition channels once at full resolution; tiles crop consistently
    y_up = bicubic_upsample(as_tensor(y_arr.astype(dtype)), cfg.scale).data
    z_arr = z_arr.astype(dtype)

    if tile is None:
        fused = _fuse_field(params, cfg, sched, z_arr, y_up, x_init, tau,
                            sigma_mode, step_noise)
    else:
        fused = _fuse_tiled(params, cfg, sched, z_arr, y_up, x_init, tau,
                            sigma_mode, step_noise, tile, tile_stride)
    # clip in place and cast without a copy when already float32: the
    # tiled blend is a float64 scene, so each temporary would be 2 cubes
    fused = np.clip(fused, 0.0, 1.0, out=fused).astype(np.float32, copy=False)
    name = y.name if isinstance(y, HsiCube) else None
    return HsiCube(fused, value_range=(0.0, 1.0), name=name)


def _fuse_field(params, cfg, sched, z_arr, y_up, x_init, tau, sigma_mode, step_noise):
    steps = list(tau.steps)[::-1]
    x = x_init
    for i, t in enumerate(steps):
        t_prev = steps[i + 1] if i + 1 < len(steps) else 0
        cond = concat_channels([as_tensor(x), as_tensor(z_arr), as_tensor(y_up)])
        eps_hat = predict_noise(params, cfg, cond, t).data
        if not np.isfinite(eps_hat).all():
            raise ValueError(f"network output is non-finite at DDIM step t={t}")
        if cfg.prediction == "x0":
            eps_hat = eps_from_x0(x, eps_hat, t, sched)
        sigma = ddim_sigma(sched, t, t_prev, sigma_mode)
        noise = step_noise[i] if step_noise is not None and t_prev > 0 else None
        x = ddim_step(x, eps_hat, t, t_prev, sigma, sched, noise=noise)
    return x


def _tile_starts(extent: int, tile: int, stride: int) -> list[int]:
    if extent <= tile:
        return [0]
    starts = list(range(0, extent - tile, stride))
    starts.append(extent - tile)
    return starts


def _feather(tile: int, overlap: int) -> np.ndarray:
    w = np.ones(tile, dtype=np.float64)
    if overlap > 0:
        ramp = np.arange(1, overlap + 1) / (overlap + 1.0)
        w[:overlap] = np.minimum(w[:overlap], ramp)
        w[-overlap:] = np.minimum(w[-overlap:], ramp[::-1])
    return w


def _fuse_tiled(params, cfg, sched, z_arr, y_up, x_init, tau, sigma_mode,
                step_noise, tile, stride):
    if tile % 2 ** (cfg.levels - 1):
        raise ValueError(f"tile {tile} not divisible by 2^(levels-1)")
    H, W = z_arr.shape[1:]
    overlap = tile - stride
    win = _feather(tile, overlap)
    acc = np.zeros((cfg.bands, H, W), dtype=np.float64)
    weight = np.zeros((H, W), dtype=np.float64)
    for r in _tile_starts(H, tile, stride):
        for c in _tile_starts(W, tile, stride):
            sl = np.s_[:, r:r + tile, c:c + tile]
            noise_crop = None
            if step_noise is not None:
                noise_crop = [n[sl] for n in step_noise]
            patch = _fuse_field(
                params, cfg, sched, z_arr[sl], y_up[sl], x_init[sl], tau,
                sigma_mode, noise_crop,
            )
            w2d = np.outer(win[:patch.shape[1]], win[:patch.shape[2]])
            acc[sl] += patch * w2d
            weight[r:r + tile, c:c + tile] += w2d
    acc /= np.maximum(weight, 1e-12)
    return acc
