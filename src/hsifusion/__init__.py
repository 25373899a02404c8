"""Diffusion-based hyperspectral/multispectral image fusion toolkit."""

__version__ = "0.1.0"

from .autodiff import Tensor, backward
from .datacube import CubeFormatError, HsiCube, read_cube, write_cube
from .degrade import (
    ObservationModel,
    load_srf,
    simulate_observations,
    spatial_degrade,
    spectral_degrade,
    uniform_band_groups,
)
from .denoiser import (
    DenoiserConfig,
    assemble_condition,
    init_params,
    param_count,
    predict_noise,
    time_embedding,
)
from .diffusion import (
    posterior_mean,
    posterior_mean_from_eps,
    q_sample,
    simple_loss,
    step_kl,
)
from .checkpoint import Checkpoint, CheckpointFormatError, load_checkpoint, save_checkpoint
from .metrics import FusionReport, band_rmse, ergas, psnr, sam, ssim
from .sampler import TauSchedule, ddim_sigma, ddim_step, fuse, select_tau
from .schedule import NoiseSchedule, linear_schedule, marginal_coeffs, posterior_coeffs
from .synthetic import make_toy_cube, make_toy_dataset, observed_triples
from .trainer import AdamState, TrainConfig, adam_step, cosine_lr, sample_patch, train, train_step

__all__ = [
    "AdamState",
    "Checkpoint",
    "CheckpointFormatError",
    "CubeFormatError",
    "DenoiserConfig",
    "FusionReport",
    "HsiCube",
    "NoiseSchedule",
    "ObservationModel",
    "TauSchedule",
    "Tensor",
    "TrainConfig",
    "adam_step",
    "assemble_condition",
    "backward",
    "band_rmse",
    "cosine_lr",
    "ddim_sigma",
    "ddim_step",
    "ergas",
    "fuse",
    "init_params",
    "linear_schedule",
    "load_checkpoint",
    "load_srf",
    "make_toy_cube",
    "make_toy_dataset",
    "marginal_coeffs",
    "observed_triples",
    "param_count",
    "posterior_coeffs",
    "posterior_mean",
    "posterior_mean_from_eps",
    "predict_noise",
    "psnr",
    "q_sample",
    "read_cube",
    "sam",
    "sample_patch",
    "save_checkpoint",
    "select_tau",
    "simple_loss",
    "simulate_observations",
    "spatial_degrade",
    "spectral_degrade",
    "ssim",
    "step_kl",
    "time_embedding",
    "train",
    "train_step",
    "uniform_band_groups",
    "write_cube",
]
