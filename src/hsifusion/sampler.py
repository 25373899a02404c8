"""Reverse-process inference: ancestral sampling and skip-step DDIM fusion.

A fused image starts as pure Gaussian noise at the few-band image's
resolution and is denoised over a sub-sequence of timesteps, conditioning on
the two observed images at every step. With sigma = 0 the update is
deterministic given the initial noise. Untiled fusion is one window that
covers the whole scene, and it runs the same loop as tiled fusion. Fusion
runs step-major: every window takes a step before any takes the next. Noise
never exists as a whole-scene cube: the initial noise and each step's
posterior noise are drawn one band at a time, the band's window crops
written into (or added to) the window states, and several windows are
blended band by band. Memory therefore scales with the window states and
one band, not with the step count or a float64 scene; the network's own
memory does not, as ``fuse`` says.
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
    ``eps_hat`` and ``noise`` must have the shape of ``xt``.
    """
    out = _ddim_mean(xt, eps_hat, t, t_prev, sigma, sched)
    if noise is not None and np.shape(noise) != out.shape:
        raise ValueError(f"noise has shape {np.shape(noise)}, x_t has {out.shape}")
    if sigma > 0 and t_prev > 0:
        if noise is None:
            raise ValueError("stochastic ddim_step needs a noise array")
        out = (out + sigma * noise).astype(out.dtype, copy=False)
    return out


def _ddim_mean(xt, eps_hat, t: int, t_prev: int, sigma: float,
               sched: NoiseSchedule) -> np.ndarray:
    """``ddim_step`` without its sigma * noise term, in the dtype of ``xt``.

    The noise enters the update only as that last addition, so a caller may
    add it later, a band at a time.
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
    if eps_hat.shape != xt.shape:
        raise ValueError(f"eps_hat has shape {eps_hat.shape}, x_t has {xt.shape}")
    x0_hat = (xt - math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(ab_t)
    out = math.sqrt(ab_prev) * x0_hat
    direction = math.sqrt(max(1.0 - ab_prev - sigma**2, 0.0))
    if direction > 0:
        out = out + direction * eps_hat
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
    too large to denoise whole. Untiled memory grows with the square of the
    scene's pixel count: the network's bottleneck attention (``mid.attn``)
    runs whatever ``cfg.attention_levels`` says, and its logits hold one
    value per pair of bottleneck pixels. Untiled fusion is one window over
    the whole scene, and so is a tile at least the scene's size; a single
    window's state is the result, with no blend.

    Fusion is step-major: each window keeps a state and all take DDIM step
    i before step i+1. Noise fields cover the whole scene, so tiling does
    not change the per-pixel noise. Each window takes the deterministic
    part of the step; once all have, the step's field is drawn a band at a
    time and sigma times each band's crop is added to the window states,
    which is the same update as drawing the field first. The draw order is
    fixed: the initial noise, then one field per noisy step. A network that
    predicts x0 (``cfg.prediction == "x0"``) has its output turned into the
    implied noise before each DDIM step. Output values are clamped to
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
    if tile is not None and tile % 2 ** (cfg.levels - 1):
        raise ValueError(f"tile {tile} not divisible by 2^(levels-1)")
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
    shape = (cfg.bands, H, W)
    windows = [np.s_[:, :, :]] if tile is None else [
        np.s_[:, r:r + tile, c:c + tile] for r in _tile_starts(H, tile, tile_stride)
        for c in _tile_starts(W, tile, tile_stride)]
    # each state has its window's size and is filled from the initial noise's
    # bands as they are drawn, so no whole-scene draw exists. No state or
    # band stays bound to a loop variable: it would outlive the step that
    # replaced it, so loops index the states and bands are deleted
    states = [np.empty((cfg.bands, *z_arr[sl].shape[1:]), dtype=np.float32) for sl in windows]
    for b, band in enumerate(_normal_bands(rng, shape)):
        for k, sl in enumerate(windows):
            states[k][b] = band[sl[1:]]
    del band
    # condition channels once at full resolution; tiles crop consistently
    y_up = bicubic_upsample(as_tensor(y_arr.astype(np.float32)), cfg.scale).data
    z_arr = z_arr.astype(np.float32)
    steps = tau.steps[::-1]
    for t, t_prev in zip(steps, steps[1:] + (0,)):
        sigma = ddim_sigma(sched, t, t_prev, sigma_mode)
        for k, sl in enumerate(windows):
            x = states[k]
            cond = concat_channels([as_tensor(x), as_tensor(z_arr[sl]), as_tensor(y_up[sl])])
            eps_hat = predict_noise(params, cfg, cond, t).data
            if not np.isfinite(eps_hat).all():
                raise ValueError(f"network output is non-finite at DDIM step t={t}")
            if cfg.prediction == "x0":
                eps_hat = eps_from_x0(x, eps_hat, t, sched)
            states[k] = _ddim_mean(x, eps_hat, t, t_prev, sigma, sched)
        del x, cond, eps_hat
        # the step's noise is the additive sigma * z of the update: drawn for
        # the whole scene a band at a time once every tile has stepped, and
        # drawn even where sigma is 0, so later steps see the same generator
        if sigma_mode != "zero" and t_prev > 0:
            for b, band in enumerate(_normal_bands(rng, shape)):
                if sigma > 0:
                    for k, sl in enumerate(windows):
                        states[k][b] += sigma * band[sl[1:]]
            del band
    del y_up, z_arr

    fused = states.pop() if len(states) == 1 else _blend(states, windows, shape, tile, tile_stride)
    np.clip(fused, 0.0, 1.0, out=fused)
    name = y.name if isinstance(y, HsiCube) else None
    return HsiCube(fused, value_range=(0.0, 1.0), name=name)


def _normal_bands(rng: np.random.Generator, shape):
    """The bands of ``rng.normal(size=shape).astype(np.float32)``, one (H, W)
    band at a time: the generator fills C order, so the values and the
    generator's final state are those of the whole draw, with no cube."""
    for _ in range(shape[0]):
        yield rng.normal(size=shape[1:]).astype(np.float32)


def _tile_starts(extent: int, tile: int, stride: int) -> list[int]:
    return [*range(0, extent - tile, stride), max(extent - tile, 0)]


def _blend(states, windows, shape, tile, stride) -> np.ndarray:
    """Feathered mean of the tile states as a float32 scene; empties ``states``.

    Bands are blended one at a time: each accumulates in float64 in tile
    order and is divided by the float64 weight map, so the result is the
    whole-scene float64 blend cast to float32, without a float64 scene.
    """
    i = np.arange(tile)  # weights ramp up and down over the tile - stride overlap
    win = np.minimum(1.0, np.minimum(i + 1, tile - i) / (tile - stride + 1.0))
    w2d = np.outer(win[:states[0].shape[1]], win[:states[0].shape[2]])
    weight = np.zeros(shape[1:], dtype=np.float64)
    for sl in windows:
        weight[sl[1:]] += w2d
    np.maximum(weight, 1e-12, out=weight)
    out = np.empty(shape, dtype=np.float32)
    acc = np.empty(shape[1:], dtype=np.float64)
    for b in range(shape[0]):
        acc.fill(0.0)
        for st, sl in zip(states, windows):
            acc[sl[1:]] += st[b] * w2d
        np.divide(acc, weight, out=out[b])
    states.clear()
    return out
