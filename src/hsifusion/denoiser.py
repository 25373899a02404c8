"""Conditional denoising network.

The network sees the noisy target, the high-resolution few-band image, and a
bicubic blow-up of the low-resolution many-band image, concatenated along
channels, plus the timestep through a sinusoidal embedding. That input is
built in one place, ``assemble_condition``, for training and for each
fusion window. Architecture: stem conv, a down path of residual blocks (time
bias injected after the first conv of each block, optional attention,
strided-conv downsample), a bottleneck of residual/attention/residual, a
mirrored up path consuming skip concatenations, and a zero-initialized output
conv.

A residual block is GroupNorm -> SiLU -> conv + bias, twice, and an up step
is nearest upsample -> conv + bias. Each of those is one primitive,
``conv2d(..., bias=..., norm=...)`` or ``conv2d(..., bias=..., upsample=2)``,
so neither the normalized nor the upsampled map is written on its own. The
SiLU of the time embedding is applied once per evaluation and shared by
every block, so a network evaluation on the default three-level config
records 61 tape nodes. The time bias stays a separate ``add_channel_bias``:
folding it into the conv bias would change the float32 rounding.

``DenoiserConfig.prediction`` names what the output estimates: ``"eps"``
(the default) reads it as the injected noise, ``"x0"`` as the clean cube.
Both drive the same sampler: an x0 output is turned into the implied noise
``(x_t - sqrt(ab_t) * x0_hat) / sqrt(1 - ab_t)`` before each DDIM step. The
x0 estimator matters when training is short: an eps error reaches x0_hat
multiplied by ``sqrt((1 - ab_t) / ab_t)``, about 12 at t = T on a schedule
with ab_T = 0.0064, while an x0 estimate carries no such factor. eps stays
the default because checkpoints written before the field existed, and the
benchmark's stored references, are eps-predicting.

Parameters live in a flat name -> Tensor map so checkpoints are plain named
tensors. The forward pass is the only description of the network: each layer
takes its weights by name with the shape the config implies, and
``init_params`` runs that pass once to create them. A weight map that lacks a
name, holds one the config never uses, or has a tensor of the wrong shape is
rejected with a ``ValueError`` naming the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor, add, as_tensor
from .datacube import _config_from_dict, _int_at_least, _is_int
from .ops import (
    add_channel_bias,
    bicubic_upsample,
    concat_channels,
    conv2d,
    dense,
    self_attention,
    silu,
)


@dataclass(frozen=True)
class DenoiserConfig:
    bands: int
    msi_bands: int
    scale: int
    base_channels: int = 32
    channel_multipliers: tuple[int, ...] = (1, 2, 4)
    attention_levels: tuple[int, ...] = (2,)
    time_embed_dim: int = 128
    groups: int = 8
    prediction: str = "eps"

    def __post_init__(self):
        for name in ("bands", "msi_bands", "scale", "base_channels", "time_embed_dim", "groups"):
            object.__setattr__(self, name,
                               _int_at_least(getattr(self, name), 1, f"model config '{name}'"))
        for name in ("channel_multipliers", "attention_levels"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(_is_int(v) for v in value):
                raise ValueError(f"model config '{name}' must be a list of integers, "
                                 f"got {value!r}")
            object.__setattr__(self, name, tuple(int(v) for v in value))
        object.__setattr__(self, "attention_levels", tuple(sorted(set(self.attention_levels))))
        if any(m < 1 for m in self.channel_multipliers):
            raise ValueError(f"model config 'channel_multipliers' must be positive, "
                             f"got {list(self.channel_multipliers)}")
        if self.levels < 1:
            raise ValueError("need at least one resolution level")
        if self.time_embed_dim % 2 != 0:
            raise ValueError(f"time_embed_dim must be even, got {self.time_embed_dim}")
        if self.base_channels % self.groups != 0:
            raise ValueError(
                f"base_channels {self.base_channels} not divisible by groups {self.groups}"
            )
        if any(lv < 0 or lv >= self.levels for lv in self.attention_levels):
            raise ValueError(f"attention levels {self.attention_levels} out of range")
        if self.prediction not in ("eps", "x0"):
            raise ValueError(
                f"unknown prediction '{self.prediction}' (use 'eps' or 'x0')"
            )

    @property
    def levels(self) -> int:
        return len(self.channel_multipliers)

    @property
    def side_multiple(self) -> int:
        """2^(levels-1): the network input's height and width must be
        multiples of it to survive every stride-2 downsample."""
        return 2 ** (self.levels - 1)

    @property
    def in_channels(self) -> int:
        return 2 * self.bands + self.msi_bands

    @property
    def level_channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * m for m in self.channel_multipliers)

    def to_dict(self) -> dict:
        """Plain-JSON form. ``prediction`` appears only when it is not the
        default, so eps checkpoints and run configs keep their old bytes."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if d["prediction"] == "eps":
            del d["prediction"]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "DenoiserConfig":
        return _config_from_dict(cls, d, "model config")


def time_embedding(t: int, dim: int, T: int | None = None) -> np.ndarray:
    """Sinusoidal timestep embedding: e[2i] = sin(t / 10000^(2i/dim)),
    e[2i+1] = cos of the same argument, in float64. t = 0 is allowed as a probe value."""
    if dim % 2 != 0:
        raise ValueError(f"embedding dim must be even, got {dim}")
    if t < 0 or (T is not None and t > T):
        raise ValueError(f"timestep {t} outside [0, {T}]")
    i = np.arange(dim // 2, dtype=np.float64)
    angles = t / np.power(10000.0, 2.0 * i / dim)
    e = np.empty(dim, dtype=np.float64)
    e[0::2] = np.sin(angles)
    e[1::2] = np.cos(angles)
    return e


def assemble_condition(xt, y, z, window=(slice(None), slice(None))) -> Tensor:
    """Stack [x_t, z, bicubic_upsample(y)] along channels over the (rows, cols)
    ``window`` of z's grid that x_t covers, by default the whole grid.

    y is (L, h, w) and z is (l, h*S, w*S), both whole; x_t is (L, H, W) with
    (H, W) the window's size. The result is bitwise the crop of the whole
    condition, and y and z are cast to x_t's float width.
    """
    xt = as_tensor(xt)
    y = as_tensor(y, dtype=xt.dtype)
    z = z.data if isinstance(z, Tensor) else np.asarray(z)
    L, H, W = xt.shape
    if y.shape[0] != L:
        raise ValueError(f"band mismatch: x_t has {L} bands, y has {y.shape[0]}")
    (h, w), (zh, zw) = y.shape[1:], z.shape[1:]
    if zh % h or zw % w or zh // h != zw // w:
        raise ValueError(f"y size {(h, w)} does not divide z size {(zh, zw)} by a common factor")
    y_up = bicubic_upsample(y, zh // h, window)  # refuses anything but two slices
    if not all(s.step is None and 0 <= (s.start or 0) < (n if s.stop is None else s.stop) <= n
               for s, n in zip(window, (zh, zw))):
        raise ValueError(f"window {window!r} is not inside z's grid {(zh, zw)}")
    z = as_tensor(z[:, window[0], window[1]], dtype=xt.dtype)
    if z.shape[1:] != (H, W):
        raise ValueError(f"z spatial size {z.shape[1:]} != x_t spatial size {(H, W)}")
    return concat_channels([xt, z, y_up])


def _check_pair(cfg: DenoiserConfig, y: np.ndarray, z: np.ndarray) -> None:
    # an observed pair fits cfg by its bands and by z at cfg.scale times y's size
    for name, arr, bands in (("y", y, cfg.bands), ("z", z, cfg.msi_bands)):
        if arr.shape[0] != bands:
            raise ValueError(f"{name} has {arr.shape[0]} bands, the model expects {bands}")
    if z.shape[1:] != (y.shape[1] * cfg.scale, y.shape[2] * cfg.scale):
        raise ValueError(f"z size {z.shape[1:]} is not {cfg.scale}x the y size {y.shape[1:]}")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _ParamView:
    """The weight map as the forward pass takes it, one parameter at a time.

    Every name must be present, have the shape the config implies, and be
    taken exactly once; ``finish`` rejects names the forward pass never took.
    A view built with an ``rng`` starts empty and creates each parameter when
    it is first taken, so one forward pass initializes the whole map.
    """

    def __init__(self, params: dict[str, Tensor], rng: np.random.Generator | None = None,
                 dtype=None):
        self.params = params
        self.rng = rng
        self.dtype = dtype
        self.used: set[str] = set()

    def take(self, name: str, shape: tuple[int, ...], fan_in: int | None = None,
             fill: float = 0.0) -> Tensor:
        """Parameter ``name`` of ``shape``; created Kaiming-uniform over
        ``fan_in`` (or filled with ``fill``) when the view has an ``rng``."""
        if self.rng is not None and name not in self.params:
            init = (np.full(shape, fill) if fan_in is None
                    else _kaiming_uniform(self.rng, shape, fan_in))
            self.params[name] = Tensor(init, requires_grad=True, dtype=self.dtype)
        if name not in self.params:
            raise ValueError(f"denoiser weights are missing parameter '{name}'")
        if name in self.used:
            raise ValueError(f"parameter '{name}' consumed twice in one forward pass")
        if self.params[name].shape != shape:
            raise ValueError(
                f"parameter '{name}' has shape {self.params[name].shape}, "
                f"config expects {shape}"
            )
        self.used.add(name)
        return self.params[name]

    def finish(self) -> None:
        leftover = set(self.params) - self.used
        if leftover:
            raise ValueError(
                f"weights contain parameters the config never uses: {sorted(leftover)[:5]}"
            )


def init_params(cfg: DenoiserConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, Tensor]:
    """Freshly initialized parameter map for ``cfg``, in ``dtype``.

    The forward pass creates the parameters as it takes them, run once on a
    zero input of the smallest size the config accepts. Convolutions are
    Kaiming-uniform except the output head, which starts at zero so the
    initial prediction is exactly zero.
    """
    p = _ParamView({}, rng, dtype)
    side = cfg.side_multiple
    _forward(p, cfg, [Tensor(np.zeros((cfg.in_channels, side, side)), dtype=dtype)], 0)
    return p.params


def param_count(params: dict[str, Tensor]) -> int:
    return sum(int(p.size) for p in params.values())


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _conv_bias(p: _ParamView, name: str, x: Tensor, c_out: int, stride: int = 1,
               zero: bool = False, norm=None, upsample: int = 1) -> Tensor:
    c_in = x.shape[0]
    w = p.take(name + ".w", (c_out, c_in, 3, 3), fan_in=None if zero else 9 * c_in)
    return conv2d(x, w, stride=stride, padding=1, bias=p.take(name + ".b", (c_out,)),
                  norm=norm, upsample=upsample)


def _dense(p: _ParamView, name: str, x: Tensor, n_out: int) -> Tensor:
    n_in = x.shape[0]
    return dense(x, p.take(name + ".w", (n_out, n_in), fan_in=n_in),
                 p.take(name + ".b", (n_out,)))


def _norm(p: _ParamView, name: str, x: Tensor, groups: int) -> tuple:
    # the GroupNorm -> SiLU in front of a conv, as conv2d's norm argument;
    # taken before the conv's own weights
    c = x.shape[0]
    return groups, p.take(name + ".g", (c,), fill=1.0), p.take(name + ".b", (c,))


def _res_block(p: _ParamView, name: str, x: Tensor, temb_act: Tensor, groups: int,
               c_out: int) -> Tensor:
    # temb_act is silu(time embedding), shared by every block of one evaluation
    h = _conv_bias(p, name + ".conv1", x, c_out, norm=_norm(p, name + ".norm1", x, groups))
    h = add_channel_bias(h, _dense(p, name + ".tproj", temb_act, c_out))
    h = _conv_bias(p, name + ".conv2", h, c_out, norm=_norm(p, name + ".norm2", h, groups))
    c_in = x.shape[0]
    if c_in != c_out:
        x = conv2d(x, p.take(name + ".skip.w", (c_out, c_in, 1, 1), fan_in=c_in))
    return add(h, x)


def _attention(p: _ParamView, name: str, x: Tensor) -> Tensor:
    c = x.shape[0]
    wq, wk, wv = (p.take(f"{name}.{proj}", (c, c), fan_in=c) for proj in ("wq", "wk", "wv"))
    # zero output projection: attention starts as an identity branch
    return self_attention(x, wq, wk, wv, p.take(name + ".wo", (c, c)))


def _forward(p: _ParamView, cfg: DenoiserConfig, held: list, t: int) -> Tensor:
    # ``held`` is a one-item list holding the input, which only the stem conv
    # reads: it is emptied and the input dropped once that conv has run, so
    # an input the caller keeps no reference to is freed there
    x_in = held.pop()
    chans = cfg.level_channels
    emb = as_tensor(time_embedding(t, cfg.time_embed_dim), dtype=x_in.dtype)
    temb = _dense(p, "temb.fc1", emb, cfg.time_embed_dim)
    temb_act = silu(_dense(p, "temb.fc2", silu(temb), cfg.time_embed_dim))

    h = _conv_bias(p, "stem", x_in, chans[0])
    del x_in
    skips = []
    for i, c in enumerate(chans):
        h = _res_block(p, f"down{i}.res", h, temb_act, cfg.groups, c)
        if i in cfg.attention_levels:
            h = _attention(p, f"down{i}.attn", h)
        skips.append(h)
        if i < cfg.levels - 1:
            h = _conv_bias(p, f"down{i}.pool", h, c, stride=2)

    h = _res_block(p, "mid.res1", h, temb_act, cfg.groups, chans[-1])
    h = _attention(p, "mid.attn", h)
    h = _res_block(p, "mid.res2", h, temb_act, cfg.groups, chans[-1])

    for i in reversed(range(cfg.levels)):
        h = concat_channels([h, skips.pop()])  # the pre-concat map is freed here
        h = _res_block(p, f"up{i}.res", h, temb_act, cfg.groups, chans[i])
        if i in cfg.attention_levels:
            h = _attention(p, f"up{i}.attn", h)
        if i > 0:
            h = _conv_bias(p, f"up{i}.up", h, chans[i - 1], upsample=2)

    out = _conv_bias(p, "head.conv", h, cfg.bands, zero=True,
                     norm=_norm(p, "head.norm", h, cfg.groups))
    p.finish()
    return out


def predict_noise(params: dict[str, Tensor], cfg: DenoiserConfig, x_in, t: int) -> Tensor:
    """Run the network on an assembled (2L+l, H, W) input at timestep t.

    The (L, H, W) output is the noise estimate or the clean-cube estimate,
    as ``cfg.prediction`` says. The network drops its reference to
    ``x_in`` once the stem conv has read it.
    """
    x_in = as_tensor(x_in)
    if x_in.shape[0] != cfg.in_channels:
        raise ValueError(
            f"input has {x_in.shape[0]} channels, config expects {cfg.in_channels}"
        )
    down = cfg.side_multiple
    if x_in.shape[1] % down or x_in.shape[2] % down:
        raise ValueError(
            f"spatial size {x_in.shape[1:]} not divisible by 2^(levels-1) = {down}"
        )
    held = [x_in]
    del x_in
    return _forward(_ParamView(params), cfg, held, t)
