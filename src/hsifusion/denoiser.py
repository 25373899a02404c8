"""Conditional denoising network.

The network sees the noisy target, the high-resolution few-band image, and a
bicubic blow-up of the low-resolution many-band image, concatenated along
channels, plus the timestep through a sinusoidal embedding. Architecture:
stem conv, a down path of residual blocks (time bias injected after the first
conv of each block, optional attention, strided-conv downsample), a
bottleneck of residual/attention/residual, a mirrored up path consuming skip
concatenations, and a zero-initialized output conv.

A residual block is GroupNorm -> SiLU -> conv + bias, twice. Each of those
layers is one primitive: ``group_norm(..., silu=True)`` and
``conv2d(..., bias=...)``, and the SiLU of the time embedding is applied once
per evaluation and shared by every block, so a network evaluation on the
default three-level config records 80 tape nodes. The time bias stays a
separate ``add_channel_bias``: folding it into the conv bias would change the
float32 rounding.

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

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .autodiff import Tensor, as_tensor, default_dtype
from .ops import (
    add_channel_bias,
    bicubic_upsample,
    concat_channels,
    conv2d,
    dense,
    group_norm,
    self_attention,
    silu,
    upsample_nearest,
)


def _is_int(value) -> bool:
    # JSON true/false must not pass for 1/0
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"model config '{name}' must be a positive integer, "
                                 f"got {value!r}")
            object.__setattr__(self, name, int(value))
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
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown model config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.default_factory is MISSING and f.name not in d]
        if missing:
            raise ValueError(f"missing model config keys: {', '.join(missing)}")
        return cls(**d)


def time_embedding(t: int, dim: int, T: int | None = None) -> np.ndarray:
    """Sinusoidal timestep embedding: e[2i] = sin(t / 10000^(2i/dim)),
    e[2i+1] = cos of the same argument. t = 0 is allowed as a probe value."""
    if dim % 2 != 0:
        raise ValueError(f"embedding dim must be even, got {dim}")
    if t < 0 or (T is not None and t > T):
        raise ValueError(f"timestep {t} outside [0, {T}]")
    i = np.arange(dim // 2, dtype=np.float64)
    angles = t / np.power(10000.0, 2.0 * i / dim)
    e = np.empty(dim, dtype=np.float64)
    e[0::2] = np.sin(angles)
    e[1::2] = np.cos(angles)
    return e.astype(default_dtype())


def assemble_condition(xt, y, z) -> Tensor:
    """Stack [x_t, z, bicubic_upsample(y)] along channels.

    x_t is (L, H, W), y is (L, h, w) with H = h*S and W = w*S, z is (l, H, W).
    """
    xt, y, z = as_tensor(xt), as_tensor(y), as_tensor(z)
    L, H, W = xt.shape
    if y.shape[0] != L:
        raise ValueError(f"band mismatch: x_t has {L} bands, y has {y.shape[0]}")
    if z.shape[1:] != (H, W):
        raise ValueError(f"z spatial size {z.shape[1:]} != x_t spatial size {(H, W)}")
    h, w = y.shape[1], y.shape[2]
    if H % h != 0 or W % w != 0 or H // h != W // w:
        raise ValueError(
            f"y size {(h, w)} does not divide x_t size {(H, W)} by a common factor"
        )
    y_up = bicubic_upsample(y, H // h)
    return concat_channels([xt, z, y_up])


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


def init_params(cfg: DenoiserConfig, rng: np.random.Generator, dtype=None) -> dict[str, Tensor]:
    """Freshly initialized parameter map for ``cfg``.

    The forward pass creates the parameters as it takes them, run once on a
    zero input of the smallest size the config accepts. Convolutions are
    Kaiming-uniform except the output head, which starts at zero so the
    initial prediction is exactly zero.
    """
    dtype = dtype or default_dtype()
    p = _ParamView({}, rng, dtype)
    side = 2 ** (cfg.levels - 1)
    _forward(p, cfg, Tensor(np.zeros((cfg.in_channels, side, side)), dtype=dtype), 0)
    return p.params


def param_count(params: dict[str, Tensor]) -> int:
    return sum(int(p.size) for p in params.values())


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _conv_bias(p: _ParamView, name: str, x: Tensor, c_out: int, stride: int = 1,
               zero: bool = False) -> Tensor:
    c_in = x.shape[0]
    w = p.take(name + ".w", (c_out, c_in, 3, 3), fan_in=None if zero else 9 * c_in)
    return conv2d(x, w, stride=stride, padding=1, bias=p.take(name + ".b", (c_out,)))


def _dense(p: _ParamView, name: str, x: Tensor, n_out: int) -> Tensor:
    n_in = x.shape[0]
    return dense(x, p.take(name + ".w", (n_out, n_in), fan_in=n_in),
                 p.take(name + ".b", (n_out,)))


def _norm(p: _ParamView, name: str, x: Tensor, groups: int) -> Tensor:
    # every norm of the network feeds a SiLU
    c = x.shape[0]
    return group_norm(x, groups, p.take(name + ".g", (c,), fill=1.0), p.take(name + ".b", (c,)),
                      silu=True)


def _res_block(p: _ParamView, name: str, x: Tensor, temb_act: Tensor, groups: int,
               c_out: int) -> Tensor:
    # temb_act is silu(time embedding), shared by every block of one evaluation
    h = _conv_bias(p, name + ".conv1", _norm(p, name + ".norm1", x, groups), c_out)
    h = add_channel_bias(h, _dense(p, name + ".tproj", temb_act, c_out))
    h = _conv_bias(p, name + ".conv2", _norm(p, name + ".norm2", h, groups), c_out)
    c_in = x.shape[0]
    if c_in != c_out:
        x = conv2d(x, p.take(name + ".skip.w", (c_out, c_in, 1, 1), fan_in=c_in))
    return h + x


def _attention(p: _ParamView, name: str, x: Tensor) -> Tensor:
    c = x.shape[0]
    wq, wk, wv = (p.take(f"{name}.{proj}", (c, c), fan_in=c) for proj in ("wq", "wk", "wv"))
    # zero output projection: attention starts as an identity branch
    return self_attention(x, wq, wk, wv, p.take(name + ".wo", (c, c)))


def _forward(p: _ParamView, cfg: DenoiserConfig, x_in: Tensor, t: int) -> Tensor:
    chans = cfg.level_channels
    emb = as_tensor(time_embedding(t, cfg.time_embed_dim), dtype=x_in.dtype)
    temb = _dense(p, "temb.fc1", emb, cfg.time_embed_dim)
    temb_act = silu(_dense(p, "temb.fc2", silu(temb), cfg.time_embed_dim))

    h = _conv_bias(p, "stem", x_in, chans[0])
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
            h = _conv_bias(p, f"up{i}.up", upsample_nearest(h, 2), chans[i - 1])

    out = _conv_bias(p, "head.conv", _norm(p, "head.norm", h, cfg.groups), cfg.bands, zero=True)
    p.finish()
    return out


def predict_noise(params: dict[str, Tensor], cfg: DenoiserConfig, x_in, t: int) -> Tensor:
    """Run the network on an assembled (2L+l, H, W) input at timestep t.

    The (L, H, W) output is the noise estimate or the clean-cube estimate,
    as ``cfg.prediction`` says.
    """
    x_in = as_tensor(x_in)
    if x_in.shape[0] != cfg.in_channels:
        raise ValueError(
            f"input has {x_in.shape[0]} channels, config expects {cfg.in_channels}"
        )
    down = 2 ** (cfg.levels - 1)
    if x_in.shape[1] % down or x_in.shape[2] % down:
        raise ValueError(
            f"spatial size {x_in.shape[1:]} not divisible by 2^(levels-1) = {down}"
        )
    return _forward(_ParamView(params), cfg, x_in, t)
