"""Reverse-process inference: skip-step DDIM fusion.

There is no separate ancestral sampler: DDIM with ``sigma_mode="posterior"``
over consecutive timesteps is the ancestral DDPM update, the posterior mean
plus sqrt(beta~_t) noise (``test_matches_ancestral_update_with_shared_noise``
checks this with shared noise).

A fused image starts as pure Gaussian noise at the few-band image's
resolution and is denoised over a sub-sequence of timesteps, conditioning on
the two observed images at every step. With sigma = 0 the update is
deterministic given the initial noise. Untiled fusion is one window that
covers the whole scene, and it runs the same loop as tiled fusion. Fusion
runs tile-row-major: a tile row, the windows that share a row start, takes
all its steps before the next one starts, then writes the pixel rows above
the next tile row's first row into the output, and its states are dropped.
It hands the next tile row only two things, both taken at that row: the
generator states there, one per noise field and band, and the float64
blend sums and weights of the rows its windows share with the next tile
row. Noise never exists as a whole-scene cube: each field is drawn one band
at a time, and each tile row adds only its own rows of it to its window
states (which start at zero). A window's network input is built when the
window steps, without the rest of the scene. Memory therefore scales with
the output, one tile row's states and carried rows, one band and one
window's input, not with the scene's height, a float64 scene or a
scene-sized condition; the network's own memory does not, as ``fuse``
says. The step count adds only the handed-on generator states, one 128-bit
integer per noise field and band. With 64-pixel tiles at stride 48, a tiled
fuse of the 31-band benchmark model peaks at 1.9 output cubes of
tracemalloc at 256x256 and 1.5 at 512x512; at 112x112, two tile rows, it
peaks at 4.4, because the output cube exists while the second tile row's
network runs.
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
    start, takes all its DDIM steps before the next tile row starts; then it
    writes the pixel rows above the next tile row's first row into the
    output, one float64 band at a time, and is dropped. It hands the next
    tile row only the float64 blend sums and weights of the rows they share,
    onto which each pixel adds its windows' terms in window order as a
    whole-scene blend does, and one generator state per noise field and
    band, taken at the next tile row's first row. The noise fields cover the
    whole scene, so neither the tiling nor the order changes the per-pixel
    noise. The draw order is fixed: the initial noise, then one field per
    noisy step, each drawn a band at a time. The first tile row draws on to
    each band's end; a single window draws each band whole and records
    nothing. Sigma times a window's crop of a step's field is added after
    the deterministic part of the step, the same update as drawing the
    field first. A window's network input is built at each of its steps by
    ``assemble_condition`` over the window, bitwise the crop of the
    whole-scene input, and dropped once the network's stem has read it. A
    network that predicts x0 (``cfg.prediction == "x0"``) has its output
    turned into the implied noise before each DDIM step. Output values are
    clamped to [0, 1]. A tiled fuse at tile 64, stride 48 peaks at about 1.9
    output cubes at 256x256 and 1.5 at 512x512; two tile rows (112x112)
    peak higher, at 4.4, because the output cube exists while the second
    tile row runs.

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
    # all a tile row hands the next: the generator states at the next tile
    # row's first row, and the blend sums and weights of the rows from there
    marks = deque()
    carry = np.zeros((cfg.bands, 0, W)), np.zeros((0, W))
    steps = tau.steps[::-1]
    for r, end in zip(row_starts, row_starts[1:] + [H]):
        rows = np.s_[r:r + h]
        # each state starts at zero, and the initial noise is the sigma = 1
        # case of adding a step's noise. No state stays bound to a loop
        # variable: it would outlive the step that replaced it, so the step
        # loop indexes the states
        xs = [np.zeros((cfg.bands, h, w), dtype=np.float32) for _ in cols]
        _add_noise(rng, xs, (H, W), rows, end, cols, 1.0, marks)
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
                _add_noise(rng, xs, (H, W), rows, end, cols, sigma, marks)
        if out is None:
            out = xs[0]
        else:
            carry = _blend_rows(out, xs, r, end, cols, carry, tile, tile_stride)
        del xs

    np.clip(out, 0.0, 1.0, out=out)
    name = y.name if isinstance(y, HsiCube) else None
    return HsiCube(out, value_range=(0.0, 1.0), name=name)


def _add_noise(rng: np.random.Generator, states, plane, rows, split: int, cols,
               sigma: float, marks) -> None:
    """Add sigma times the window crops of the next whole-scene noise field
    to one tile row's window states, one band of its ``rows`` at a time."""
    for b in range(states[0].shape[0]):
        band = _band_rows(rng, plane, rows, split, marks)
        for state, c in zip(states, cols):
            state[b] += sigma * band[:, c]


def _band_rows(rng: np.random.Generator, plane, rows, split: int, marks) -> np.ndarray:
    """Rows ``rows`` of the next ``plane``-shaped band of the noise stream:
    those of ``rng.normal(size=plane).astype(np.float32)``, whose values the
    generator fills in C order however the rows are split.

    ``split`` is the next tile row's first pixel row, or the band's height.
    A tile row below row 0 first restores the generator state at its first
    row from the front of ``marks``. Each tile row draws its rows in at most
    two chunks split at ``split`` and queues the state at the split; the
    tile row at row 0 draws on to the band's end, so the next band starts
    where one whole draw would. With ``split`` at the band's end (a single
    window, or the last tile row) it draws one chunk and queues nothing.
    """
    # fuse draws only normals, which never touch PCG64's increment or its
    # buffered 32-bit draw (inc, has_uint32, uinteger), so the 128-bit state
    # integer is all that moves
    if rows.start:
        state = rng.bit_generator.state
        state["state"]["state"] = marks.popleft()
        rng.bit_generator.state = state
    band = rng.normal(size=(split - rows.start, plane[1])).astype(np.float32)
    if split == plane[0]:
        return band
    marks.append(rng.bit_generator.state["state"]["state"])
    rest = rng.normal(size=((rows.stop if rows.start else plane[0]) - split, plane[1]))
    return np.concatenate([band, rest[:rows.stop - split].astype(np.float32)])


def _tile_starts(extent: int, tile: int, stride: int) -> list[int]:
    return [*range(0, extent - tile, stride), max(extent - tile, 0)]


def _blend_rows(out, xs, r: int, end: int, cols, carry, tile: int, stride: int):
    """Write pixel rows [r, end) of ``out`` as the feathered mean of the
    window states that cover them; return the float64 sums and weights of
    rows [end, r + h), which the next tile row's windows also cover.

    ``carry`` holds those sums and weights from the earlier tile rows, for
    rows from ``r`` on. The tile row's windows ``xs`` add their terms onto
    them one band at a time, so each pixel adds its windows' terms in window
    order in float64 and is divided by its float64 weight: the rows are
    those of the whole-scene float64 blend cast to float32.
    """
    i = np.arange(tile)  # weights ramp up and down over the tile - stride overlap
    win = np.minimum(1.0, np.minimum(i + 1, tile - i) / (tile - stride + 1.0))
    _, h, w = xs[0].shape
    w2d = np.outer(win[:h], win[:w])
    sums, n = carry[0], len(carry[1])
    weight = np.zeros((h, out.shape[2]))
    weight[:n] = carry[1]
    for c in cols:
        weight[:, c] += w2d
    cut = end - r
    div = np.maximum(weight[:cut], 1e-12)
    kept = np.empty((out.shape[0], h - cut, out.shape[2]))
    acc = np.empty_like(weight)
    for band in range(out.shape[0]):
        acc[:n] = sums[band]
        acc[n:] = 0.0
        for c, x in zip(cols, xs):
            acc[:, c] += x[band] * w2d
        np.divide(acc[:cut], div, out=out[band, r:end])
        kept[band] = acc[cut:]
    return kept, weight[cut:]
