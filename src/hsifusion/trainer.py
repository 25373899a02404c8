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

from .autodiff import Tensor, backward, scale as t_scale
from .checkpoint import save_checkpoint, load_checkpoint
from .datacube import (_atomic_write_text, _config_from_dict, _int_at_least, _number_in,
                       as_cube_array)
from .denoiser import DenoiserConfig, _check_pair, assemble_condition, init_params, predict_noise
from .diffusion import q_sample, simple_loss
from .schedule import NoiseSchedule, linear_schedule


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
            setattr(self, name, _int_at_least(getattr(self, name), low, f"train config '{name}'"))
        if self.loss_p not in (1, 2):
            raise ValueError(f"train config 'loss_p' must be 1 or 2, got {self.loss_p!r}")
        for name, high in (("lr_max", math.inf), ("beta_end", 1.0)):
            setattr(self, name, _number_in(getattr(self, name), 0, high, f"train config '{name}'"))

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return _config_from_dict(cls, d, "train config")


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
        self.step = _int_at_least(self.step, 0, "optimizer 'step'")
        self.beta1 = _number_in(self.beta1, 0, 1, "optimizer 'beta1'", low_closed=True)
        self.beta2 = _number_in(self.beta2, 0, 1, "optimizer 'beta2'", low_closed=True)
        self.eps = _number_in(self.eps, 0, math.inf, "optimizer 'eps'")

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
    Adam runs once, after the last item. Items take the parameters' width, and
    the returned loss is their losses' sum in batch order, scaled by 1/B.

    A non-finite loss, or a finite loss whose gradients have a non-finite
    global norm, raises ``TrainingError`` before the update. Whatever ends
    the step, no parameter keeps a gradient, and on an error the parameters
    and the optimizer state are left as they were.
    """
    # from the set of widths: NumPy 1.x's result_type may refuse over 32 arguments
    dtype = np.result_type(*{p.dtype for p in params.values()})
    weight = 1.0 / len(batch)
    total = None
    try:
        for x0, y, z in batch:
            x0 = as_cube_array(x0).astype(dtype)
            t = int(rng.integers(1, sched.T + 1))
            eps = rng.standard_normal(x0.shape).astype(dtype)
            xt = q_sample(x0, t, eps, sched)
            cond = assemble_condition(xt, y, z)
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
        # the global gradient norm: a NaN or inf in any gradient makes it non-finite
        norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in params.values()
                             if p.grad is not None))
        if not math.isfinite(norm):
            raise TrainingError(f"non-finite gradient norm {norm} at optimizer step {opt.step + 1}")
        adam_step(params, opt, lr)
    finally:
        for p in params.values():
            p.zero_grad()
    return t_scale(total, weight).item()


def _stream_rng(seed: int, stream: int, step: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, step]))


def _check_patch(patch: int, model_cfg: DenoiserConfig) -> None:
    # a patch must hold whole low-resolution pixels and survive every downsample
    down = model_cfg.side_multiple
    if patch % model_cfg.scale or patch % down:
        raise ValueError(f"patch {patch} not divisible by scale {model_cfg.scale} "
                         f"and by 2^(levels-1) = {down}")


def _check_dataset(dataset, model_cfg: DenoiserConfig, patch: int) -> None:
    # every (x0, y, z) triple must fit the model: y and z as fusion needs
    # them, and x0 with the model's bands on z's grid, at least a patch wide
    for i, triple in enumerate(dataset):
        try:
            x0, y, z = map(as_cube_array, triple)
            _check_pair(model_cfg, y, z)
            if x0.shape != (model_cfg.bands, *z.shape[1:]):
                raise ValueError(f"x0 has shape {x0.shape}, the model and z need "
                                 f"{(model_cfg.bands, *z.shape[1:])}")
            if min(x0.shape[1:]) < patch:
                raise ValueError(f"image {x0.shape[1]}x{x0.shape[2]} smaller than patch {patch}")
        except ValueError as exc:
            raise ValueError(f"training triple {i}: {exc}") from None


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
    step<TAB>loss<TAB>lr lines, one every ``log_every`` steps and one at
    the last step. A resumed run continues the log of the run it resumes:
    the lines after the checkpoint's step are cut before new ones are added.
    A dataset triple that does not fit ``model_cfg``, or a checkpoint whose
    model or noise schedule differs from the requested one, is refused
    before anything is written.
    """
    _int_at_least(log_every, 1, "log_every")
    if not len(dataset):
        raise ValueError("training dataset is empty")
    _check_patch(train_cfg.patch, model_cfg)
    _check_dataset(dataset, model_cfg, train_cfg.patch)

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
        if ckpt.schedule is not None and {k: ckpt.schedule[k] for k in sched_info} != sched_info:
            raise ValueError(f"checkpoint schedule {ckpt.schedule} disagrees with the "
                             f"requested schedule {sched_info}")
        params = ckpt.params
        opt = AdamState.from_dict(ckpt.opt_state)
        start_step = ckpt.step
    else:
        params = init_params(model_cfg, _stream_rng(train_cfg.seed, 0))
        opt = AdamState.for_params(params)
        start_step = 0

    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "loss_log.tsv")
    final_path = os.path.join(out_dir, "checkpoint_final.ckpt")
    kept = []  # the log's lines up to the step this run starts from
    if os.path.exists(log_path):
        with open(log_path, encoding="utf-8") as log:
            kept = [line for line in log if int(line.split("\t", 1)[0]) <= start_step]
    _atomic_write_text(log_path, "".join(kept))

    with open(log_path, "a", encoding="utf-8") as log:
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
