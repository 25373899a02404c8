"""Training loop: patch sampling, Adam, cosine-annealed learning rate.

Every random draw flows from ``(seed, stream, step)`` seed sequences, so a
run resumed from a checkpoint replays exactly the remaining steps of the
uninterrupted run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, backward, default_dtype, scale as t_scale
from .checkpoint import save_checkpoint, load_checkpoint
from .datacube import as_cube_array
from .denoiser import (
    DenoiserConfig,
    _is_int,
    assemble_condition,
    init_params,
    predict_noise,
)
from .diffusion import q_sample, simple_loss
from .schedule import NoiseSchedule, linear_schedule


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


class TrainingError(RuntimeError):
    """Raised when optimization cannot continue (for example non-finite loss)."""


@dataclass
class TrainConfig:
    iterations: int = 250_000
    batch_size: int = 8
    patch: int = 64
    lr_max: float = 1e-4
    cycle: int = 50_000
    loss_p: int = 1
    T: int = 2000
    beta_end: float = 0.01
    seed: int = 0
    checkpoint_every: int = 10_000

    def __post_init__(self):
        for name, low in (("iterations", 0), ("batch_size", 1), ("patch", 1), ("cycle", 1),
                          ("loss_p", 1), ("T", 1), ("seed", 0), ("checkpoint_every", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ValueError(f"train config '{name}' must be an integer >= {low}, "
                                 f"got {value!r}")
            setattr(self, name, int(value))
        if self.loss_p not in (1, 2):
            raise ValueError(f"train config 'loss_p' must be 1 or 2, got {self.loss_p!r}")
        for name, high in (("lr_max", math.inf), ("beta_end", 1.0)):
            value = getattr(self, name)
            if not _is_real(value) or not 0.0 < value < high:
                raise ValueError(f"train config '{name}' must be a number in (0, {high}), "
                                 f"got {value!r}")
            setattr(self, name, float(value))

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown train config keys: {', '.join(unknown)}")
        return cls(**d)


@dataclass
class AdamState:
    """First/second moment buffers plus the shared hyperparameters."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not _is_int(self.step) or self.step < 0:
            raise ValueError(f"optimizer 'step' must be an integer >= 0, got {self.step!r}")
        self.step = int(self.step)
        for name, what, ok in (("beta1", "a number in [0, 1)", lambda v: 0.0 <= v < 1.0),
                               ("beta2", "a number in [0, 1)", lambda v: 0.0 <= v < 1.0),
                               ("eps", "a finite number > 0", lambda v: 0.0 < v < math.inf)):
            value = getattr(self, name)
            if not (_is_real(value) and ok(value)):
                raise ValueError(f"optimizer '{name}' must be {what}, got {value!r}")

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={n: np.zeros_like(p.data) for n, p in params.items()},
            v={n: np.zeros_like(p.data) for n, p in params.items()},
        )

    def to_dict(self) -> dict:
        return {"beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
                "step": self.step, "m": self.m, "v": self.v}

    @classmethod
    def from_dict(cls, d: dict) -> "AdamState":
        return cls(m=d["m"], v=d["v"], step=d["step"],
                   beta1=d["beta1"], beta2=d["beta2"], eps=d["eps"])


def adam_step(params: dict[str, Tensor], opt: AdamState, lr: float) -> None:
    """One bias-corrected Adam update from the accumulated gradients."""
    opt.step += 1
    c1 = 1.0 - opt.beta1**opt.step
    c2 = 1.0 - opt.beta2**opt.step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + opt.eps)


def cosine_lr(step: int, lr_max: float, cycle: int) -> float:
    """Raised-cosine decay lr_max -> 0 within each cycle, hard restarts."""
    if step < 0:
        raise ValueError("step must be >= 0")
    phase = (step % cycle) / cycle
    return float(lr_max * (1.0 + np.cos(np.pi * phase)) / 2.0)


def sample_patch(dataset, patch: int, scale: int, rng: np.random.Generator):
    """Aligned random crop triple (x0, y, z) from a random training image.

    Crop origins are multiples of ``scale`` so the low-resolution patch is
    exactly the block average of the high-resolution one.
    """
    if patch % scale:
        raise ValueError(f"patch {patch} not divisible by scale {scale}")
    x0, y, z = dataset[int(rng.integers(len(dataset)))]
    x0, y, z = as_cube_array(x0), as_cube_array(y), as_cube_array(z)
    _, H, W = x0.shape
    if H < patch or W < patch:
        raise ValueError(f"image {H}x{W} smaller than patch {patch}")
    r = int(rng.integers((H - patch) // scale + 1)) * scale
    c = int(rng.integers((W - patch) // scale + 1)) * scale
    s = scale
    return (
        x0[:, r:r + patch, c:c + patch],
        y[:, r // s:(r + patch) // s, c // s:(c + patch) // s],
        z[:, r:r + patch, c:c + patch],
    )


def train_step(
    params: dict[str, Tensor],
    opt: AdamState,
    batch,
    sched: NoiseSchedule,
    loss_p: int,
    lr: float,
    rng: np.random.Generator,
    cfg: DenoiserConfig,
) -> float:
    """One optimization step on a batch of (x0, y, z) triples.

    Each item draws its own uniform timestep and Gaussian noise; the loss is
    taken against the noise or, when ``cfg.prediction == "x0"``, against the
    clean patch, and averaged over items. The gradient of that mean is the
    mean of the per-item gradients, so each item is backpropagated, scaled
    by 1/B, as soon as its loss exists: its graph is consumed before the
    next item's is built, and one item's graph is the most the step holds.
    Adam runs once, after the last item. The returned loss is the float32
    sum of the item losses, in batch order, scaled by 1/B.

    A non-finite loss raises ``TrainingError`` before the update. Whatever
    ends the step, no parameter keeps a gradient, and on an error the
    parameters and the optimizer state are left as they were.
    """
    dtype = default_dtype()
    weight = 1.0 / len(batch)
    total = None
    try:
        for x0, y, z in batch:
            x0 = as_cube_array(x0).astype(dtype)
            t = int(rng.integers(1, sched.T + 1))
            eps = rng.standard_normal(x0.shape).astype(dtype)
            xt = q_sample(x0, t, eps, sched)
            cond = assemble_condition(xt, np.asarray(y, dtype=dtype), np.asarray(z, dtype=dtype))
            pred = predict_noise(params, cfg, cond, t)
            item_loss = simple_loss(x0 if cfg.prediction == "x0" else eps, pred, loss_p)
            del xt, cond, pred
            # the item losses are non-negative, so the running sum is finite
            # exactly when every item loss and the batch loss are
            total = item_loss.data if total is None else total + item_loss.data
            if not np.isfinite(total):
                raise TrainingError(
                    f"non-finite loss {total.item()} at optimizer step {opt.step + 1}"
                )
            backward(t_scale(item_loss, weight))
        adam_step(params, opt, lr)
    finally:
        for p in params.values():
            p.zero_grad()
    return t_scale(total, weight).item()


def _stream_rng(seed: int, stream: int, step: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, step]))


def _check_patch(patch: int, model_cfg: DenoiserConfig) -> None:
    # a patch must hold whole low-resolution pixels and survive every downsample
    down = 2 ** (model_cfg.levels - 1)
    if patch % model_cfg.scale or patch % down:
        raise ValueError(f"patch {patch} not divisible by scale {model_cfg.scale} "
                         f"and by 2^(levels-1) = {down}")


def train(
    train_cfg: TrainConfig,
    model_cfg: DenoiserConfig,
    dataset,
    out_dir,
    resume_from=None,
    log_every: int = 1,
) -> str:
    """Run the training loop and return the path of the final checkpoint.

    Writes ``checkpoint_<step>.ckpt`` every ``checkpoint_every`` steps, a
    final ``checkpoint_final.ckpt``, and a ``loss_log.tsv`` with
    step<TAB>loss<TAB>lr lines.
    """
    if not len(dataset):
        raise ValueError("training dataset is empty")
    _check_patch(train_cfg.patch, model_cfg)

    os.makedirs(out_dir, exist_ok=True)
    sched = linear_schedule(train_cfg.T, train_cfg.beta_end)
    sched_info = {"T": train_cfg.T, "beta_end": train_cfg.beta_end}

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.opt_state is None:
            raise ValueError(
                f"{resume_from} has no optimizer state; it can serve inference only"
            )
        if ckpt.config != model_cfg:
            raise ValueError("checkpoint config disagrees with the requested model config")
        params = ckpt.params
        opt = AdamState.from_dict(ckpt.opt_state)
        start_step = ckpt.step
    else:
        params = init_params(model_cfg, _stream_rng(train_cfg.seed, 0))
        opt = AdamState.for_params(params)
        start_step = 0

    log_path = os.path.join(out_dir, "loss_log.tsv")
    log_mode = "a" if resume_from is not None else "w"
    final_path = os.path.join(out_dir, "checkpoint_final.ckpt")

    with open(log_path, log_mode, encoding="utf-8") as log:
        for step in range(start_step, train_cfg.iterations):
            lr = cosine_lr(step, train_cfg.lr_max, train_cfg.cycle)
            rng = _stream_rng(train_cfg.seed, 1, step)
            batch = [
                sample_patch(dataset, train_cfg.patch, model_cfg.scale, rng)
                for _ in range(train_cfg.batch_size)
            ]
            loss = train_step(params, opt, batch, sched, train_cfg.loss_p, lr, rng, model_cfg)
            done = step + 1
            if done % log_every == 0 or done == train_cfg.iterations:
                log.write(f"{done}\t{loss:.6g}\t{lr:.6g}\n")
            if train_cfg.checkpoint_every and done % train_cfg.checkpoint_every == 0:
                save_checkpoint(
                    os.path.join(out_dir, f"checkpoint_{done:07d}.ckpt"),
                    model_cfg, params, opt.to_dict(), done, schedule=sched_info,
                )

    save_checkpoint(final_path, model_cfg, params, opt.to_dict(),
                    max(train_cfg.iterations, start_step), schedule=sched_info)
    return final_path
