"""Reverse-process inference: ancestral sampling and skip-step DDIM fusion.

A fused image starts as pure Gaussian noise at the few-band image's
resolution and is denoised over a sub-sequence of timesteps, conditioning on
the two observed images at every step. With sigma = 0 the update is
deterministic given the initial noise. Untiled fusion is one window that
covers the whole scene, and it runs the same loop as tiled fusion. Fusion
runs step-major: every window takes a step before any takes the next. Noise
never exists as a whole-scene cube: the initial noise and each step's
posterior noise are drawn one band at a time, each band's window crops
added to the window states (which start at zero), and several windows are
blended band by band. A window's network input is built when the window
steps, without the rest of the scene. Memory therefore scales with the
window states, one band and one window's input, not with the step count, a
float64 scene or a scene-sized condition; the network's own memory does
not, as ``fuse`` says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _check_same_shape
from .datacube import HsiCube, _is_int, as_cube_array
from .denoiser import DenoiserConfig, _check_pair, assemble_condition, predict_noise
from .diffusion import eps_from_x0
from .schedule import NoiseSchedule


@dataclass(frozen=True)
class TauSchedule:
    """Strictly increasing timesteps tau_1 < ... < tau_d = T."""

    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        if not all(map(_is_int, steps)):
            raise ValueError(f"tau schedule steps must be integers, got {steps!r}")
        steps = tuple(map(int, steps))
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
    if noise is not None:
        _check_same_shape(np.asarray(noise), out, "ddim_step noise")
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
    _check_same_shape(eps_hat, xt, "ddim_step eps_hat")
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
    which is the same update as drawing the field first. A window's network
    input is built at each of its steps by ``assemble_condition`` over the
    window, bitwise the crop of the whole-scene input, and dropped once the
    network's stem has read it. The draw order is fixed: the initial noise,
    then one field per noisy step. A network that predicts x0
    (``cfg.prediction == "x0"``) has its output turned into the implied
    noise before each DDIM step. Output values are clamped to [0, 1].

    The network runs on constant views of ``params``, so inference records
    no tape and the caller's tensors are left as they are. Non-finite values
    in ``y`` or ``z``, a pair that does not fit ``cfg``, or a non-finite
    network output at some step, raise ``ValueError``, as does a ``tile``,
    ``tile_stride`` or ``rng_seed`` that is not an integer (a bool is not).
    """
    for name, value in (("tile", tile), ("tile_stride", tile_stride), ("rng_seed", rng_seed)):
        if not (_is_int(value) or name == "tile" and value is None):
            raise ValueError(f"fuse: {name} must be an integer, got {value!r}")
    if tau.steps[-1] != sched.T:
        raise ValueError(f"tau ends at {tau.steps[-1]} but the schedule has T={sched.T}")
    if tile is not None and not 1 <= tile_stride <= tile:
        raise ValueError(
            f"need 1 <= tile_stride <= tile, got tile={tile}, tile_stride={tile_stride}"
        )
    if tile is not None and tile % cfg.side_multiple:
        raise ValueError(f"tile {tile} not divisible by 2^(levels-1)")
    y_arr = as_cube_array(y)
    z_arr = as_cube_array(z)
    for label, arr in (("y", y_arr), ("z", z_arr)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{label} contains non-finite values")
    _check_pair(cfg, y_arr, z_arr)
    H, W = z_arr.shape[1:]

    # zero-copy constants: no network evaluation below records a tape
    params = {n: Tensor(p.data, dtype=p.data.dtype.type) for n, p in params.items()}
    rng = np.random.default_rng(rng_seed)
    shape = (cfg.bands, H, W)
    # (rows, cols) windows inside the scene; a tile larger than the scene is cut
    windows = [np.s_[:, :]] if tile is None else [
        np.s_[r:min(r + tile, H), c:min(c + tile, W)] for r in _tile_starts(H, tile, tile_stride)
        for c in _tile_starts(W, tile, tile_stride)]
    # each state has its window's size and starts at zero, and the initial
    # noise is the sigma = 1 case of adding a step's noise, so no whole-scene
    # draw exists. No state stays bound to a loop variable: it would outlive
    # the step that replaced it, so the step loop indexes the states
    states = [np.zeros((cfg.bands, *z_arr[0][sl].shape), dtype=np.float32) for sl in windows]
    _add_noise(rng, shape, states, windows, 1.0)
    steps = tau.steps[::-1]
    for t, t_prev in zip(steps, steps[1:] + (0,)):
        sigma = ddim_sigma(sched, t, t_prev, sigma_mode)
        for k, sl in enumerate(windows):
            x = states[k]
            # the input is passed unbound, so the network frees it once the
            # stem conv has read it
            eps_hat = predict_noise(params, cfg, assemble_condition(x, y_arr, z_arr, sl), t).data
            if not np.isfinite(eps_hat).all():
                raise ValueError(f"network output is non-finite at DDIM step t={t}")
            if cfg.prediction == "x0":
                eps_hat = eps_from_x0(x, eps_hat, t, sched)
            states[k] = _ddim_mean(x, eps_hat, t, t_prev, sigma, sched)
        del x, eps_hat
        # the step's noise is the additive sigma * z of the update, added once
        # every window has stepped; with tau strictly increasing, a posterior
        # step's sigma is never 0
        if sigma_mode != "zero" and t_prev > 0:
            _add_noise(rng, shape, states, windows, sigma)

    fused = states.pop() if len(states) == 1 else _blend(states, windows, shape, tile, tile_stride)
    np.clip(fused, 0.0, 1.0, out=fused)
    name = y.name if isinstance(y, HsiCube) else None
    return HsiCube(fused, value_range=(0.0, 1.0), name=name)


def _add_noise(rng: np.random.Generator, shape, states, windows, sigma: float) -> None:
    """Add sigma times each window's crop of one whole-scene draw
    ``rng.normal(size=shape).astype(np.float32)`` to the window states,
    drawing the scene one (H, W) band at a time: the generator fills C order,
    so the values and its final state are those of the whole draw."""
    for b in range(shape[0]):
        band = rng.normal(size=shape[1:]).astype(np.float32)
        for state, sl in zip(states, windows):
            state[b] += sigma * band[sl]


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
        weight[sl] += w2d
    np.maximum(weight, 1e-12, out=weight)
    out = np.empty(shape, dtype=np.float32)
    acc = np.empty(shape[1:], dtype=np.float64)
    for b in range(shape[0]):
        acc.fill(0.0)
        for st, sl in zip(states, windows):
            acc[sl] += st[b] * w2d
        np.divide(acc, weight, out=out[b])
    states.clear()
    return out
