"""Reverse-process inference: ancestral sampling and skip-step DDIM fusion.

A fused image starts as pure Gaussian noise at the few-band image's
resolution and is denoised over a sub-sequence of timesteps, conditioning on
the two observed images at every step. With sigma = 0 the update is
deterministic given the initial noise. Untiled fusion is one window that
covers the whole scene, and it runs the same loop as tiled fusion. Fusion
runs tile-row-major: a tile row, the windows that share a row start, takes
all its steps before the next one starts, and then the pixel rows no later
tile row covers are blended into the output and the states that reach no
unfinished row are dropped. Noise never exists as a whole-scene cube: each
field is drawn one band at a time, and each tile row adds only its own rows
of it to its window states (which start at zero). A window's network input
is built when the window steps, without the rest of the scene. Memory
therefore scales with the output, the states of the tile rows that reach an
unfinished pixel row, one band and one window's input, not with the scene's
height, a float64 scene or a scene-sized condition; the network's own
memory does not, as ``fuse`` says. The step count adds only the recorded
generator states, about 0.5 KB per noise field, band and later tile row.
With 64-pixel tiles at stride 48, a tiled fuse of the 31-band benchmark
model peaks at 2.2 output cubes of tracemalloc at 256x256 and 1.5 at
512x512 (2.7 and 3.0 when every window's state lived until one blend at the
end). At 112x112, two tile rows, it peaks at 5.1 (4.0 before), because the
output cube exists while the second tile row's network runs.
"""

from __future__ import annotations

import math
from collections import deque
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

    Fusion is tile-row-major. A tile row, the windows that share a row
    start, takes all its DDIM steps before the next tile row starts. Then the
    pixel rows that no later tile row covers are blended into the output one
    float64 band at a time, each pixel adding its windows' terms in window
    order, and the states that reach no unfinished row are dropped. The
    noise fields cover the whole scene, so neither the tiling nor the order
    changes the per-pixel noise. The draw order is fixed: the initial noise,
    then one field per noisy step, each drawn a band at a time. The first
    tile row draws every band in row chunks split at the later tile rows'
    first pixel rows and records the generator's state at each split; each
    later tile row restores its states and draws only its own rows. A single
    window draws each band whole and records nothing. Sigma times a window's
    crop of a step's field is added after the deterministic part of the
    step, the same update as drawing the field first. A window's network
    input is built at each of its steps by ``assemble_condition`` over the
    window, bitwise the crop of the whole-scene input, and dropped once the
    network's stem has read it. A network that predicts x0
    (``cfg.prediction == "x0"``) has its output turned into the implied
    noise before each DDIM step. Output values are clamped to [0, 1]. A
    tiled fuse at tile 64, stride 48 peaks at about 2.2 output cubes at
    256x256 and 1.5 at 512x512; two tile rows (112x112) peak higher, at 5.1,
    because the output cube exists while the second tile row runs.

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
    # windows are (rows, cols) pairs of slices, all h x w: a tile larger than
    # the scene is cut to it, and untiled fusion is one window over the scene
    size = max(H, W) if tile is None else tile
    h, w = min(size, H), min(size, W)
    row_starts = _tile_starts(H, size, tile_stride)
    cols = [np.s_[c:c + w] for c in _tile_starts(W, size, tile_stride)]
    # a single window's state is the result, with no blend
    out = None if len(row_starts) * len(cols) == 1 else np.empty((cfg.bands, H, W), np.float32)
    resume = {r: deque() for r in row_starts[1:]}
    live = []  # (first row, window states) of the tile rows that reach an unfinished row
    done = 0
    steps = tau.steps[::-1]
    for j, r in enumerate(row_starts):
        rows = np.s_[r:r + h]
        # each state starts at zero, and the initial noise is the sigma = 1
        # case of adding a step's noise. No state stays bound to a loop
        # variable: it would outlive the step that replaced it, so the step
        # loop indexes the states
        xs = [np.zeros((cfg.bands, h, w), dtype=np.float32) for _ in cols]
        _add_noise(rng, xs, (H, W), rows, cols, 1.0, resume)
        for t, t_prev in zip(steps, steps[1:] + (0,)):
            sigma = ddim_sigma(sched, t, t_prev, sigma_mode)
            for k, c in enumerate(cols):
                x = xs[k]
                # the input is passed unbound, so the network frees it once
                # the stem conv has read it
                eps_hat = predict_noise(
                    params, cfg, assemble_condition(x, y_arr, z_arr, (rows, c)), t).data
                if not np.isfinite(eps_hat).all():
                    raise ValueError(f"network output is non-finite at DDIM step t={t}")
                if cfg.prediction == "x0":
                    eps_hat = eps_from_x0(x, eps_hat, t, sched)
                xs[k] = _ddim_mean(x, eps_hat, t, t_prev, sigma, sched)
            del x, eps_hat
            # the step's noise is the additive sigma * z of the update; with
            # tau strictly increasing, a posterior step's sigma is never 0
            if sigma_mode != "zero" and t_prev > 0:
                _add_noise(rng, xs, (H, W), rows, cols, sigma, resume)
        live.append((r, xs))
        del xs
        if out is not None:
            # rows above the next tile row's first are finished
            end = row_starts[j + 1] if j + 1 < len(row_starts) else H
            _blend_rows(out, live, done, end, cols, tile, tile_stride)
            live = [(r0, xs) for r0, xs in live if r0 + h > end]
            done = end

    fused = live.pop()[1][0] if out is None else out
    np.clip(fused, 0.0, 1.0, out=fused)
    name = y.name if isinstance(y, HsiCube) else None
    return HsiCube(fused, value_range=(0.0, 1.0), name=name)


def _add_noise(rng: np.random.Generator, states, plane, rows, cols, sigma: float,
               resume) -> None:
    """Add sigma times the window crops of the next whole-scene noise field
    to one tile row's window states, one band of its ``rows`` at a time."""
    for b in range(states[0].shape[0]):
        band = _band_rows(rng, plane, rows, resume)
        for state, c in zip(states, cols):
            state[b] += sigma * band[:, c]


def _band_rows(rng: np.random.Generator, plane, rows, resume) -> np.ndarray:
    """Rows ``rows`` of the next ``plane``-shaped band of the noise stream:
    those of ``rng.normal(size=plane).astype(np.float32)``, whose values the
    generator fills in C order however the rows are split.

    ``resume`` maps each later tile row's first pixel row, ascending, to a
    queue of generator states. The tile row at row 0 draws the whole band in
    row chunks split at those rows and queues the state at each split; a
    later tile row restores the oldest state queued at its first row and
    draws only its own rows. With no later tile row, this is the whole draw.
    """
    if rows.start:
        rng.bit_generator.state = resume[rows.start].popleft()
        return rng.normal(size=(rows.stop - rows.start, plane[1])).astype(np.float32)
    bounds = [0, *resume, plane[0]]
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        if lo:
            resume[lo].append(rng.bit_generator.state)
        chunk = rng.normal(size=(hi - lo, plane[1])).astype(np.float32)
        if lo < rows.stop:
            parts.append(chunk[:rows.stop - lo])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _tile_starts(extent: int, tile: int, stride: int) -> list[int]:
    return [*range(0, extent - tile, stride), max(extent - tile, 0)]


def _blend_rows(out, live, a: int, b: int, cols, tile: int, stride: int) -> None:
    """Write pixel rows [a, b) of ``out`` as the feathered mean of the live
    tile rows' window states.

    Each band accumulates in float64, each pixel adding its windows' terms
    in window order, and is divided by the float64 weight of the rows, so
    the rows are those of the whole-scene float64 blend cast to float32.
    """
    i = np.arange(tile)  # weights ramp up and down over the tile - stride overlap
    win = np.minimum(1.0, np.minimum(i + 1, tile - i) / (tile - stride + 1.0))
    _, h, w = live[0][1][0].shape
    w2d = np.outer(win[:h], win[:w])
    terms = []  # (rows of the block, rows of the window, columns, state)
    for r, xs in live:
        lo, hi = max(a, r), min(b, r + h)
        if lo < hi:
            terms += [(np.s_[lo - a:hi - a], np.s_[lo - r:hi - r], c, x)
                      for c, x in zip(cols, xs)]
    weight = np.zeros((b - a, out.shape[2]), dtype=np.float64)
    for dst, src, c, _ in terms:
        weight[dst, c] += w2d[src]
    np.maximum(weight, 1e-12, out=weight)
    acc = np.empty_like(weight)
    for band in range(out.shape[0]):
        acc.fill(0.0)
        for dst, src, c, x in terms:
            acc[dst, c] += x[band, src] * w2d[src]
        np.divide(acc, weight, out=out[band, a:b])
