"""Command-line surface: simulate, train, fuse, eval, ablate.

Every invocation writes a manifest (tool version, argv, config hash, seeds)
next to its primary output, so results stay traceable to their inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint
from .datacube import HsiCube, _atomic_write_text, _check_fields, read_cube, write_cube
from .degrade import ObservationModel, load_srf, simulate_observations
from .denoiser import DenoiserConfig, init_params, param_count
from .metrics import FusionReport, psnr
from .sampler import fuse, select_tau
from .schedule import linear_schedule
from .trainer import TrainConfig, _check_patch, train


@dataclass
class RunConfig:
    """Parsed run-configuration file: model, training, data lists, outputs."""

    model: DenoiserConfig
    train: TrainConfig
    train_data: list[dict]
    test_data: list[dict] = field(default_factory=list)
    out_dir: str = "runs/default"
    sampler: dict = field(default_factory=dict)


def load_run_config(path) -> RunConfig:
    where = f"{path}: run config"
    with open(path, "r", encoding="utf-8") as fh:
        raw = _check_fields(json.load(fh), where, ValueError, ("model", "train", "data"))
    raw = _check_fields({"out_dir": "runs/default", "sampler": {}, **raw}, where, ValueError,
                        strings=("out_dir",))
    for section in ("model", "train", "data", "sampler"):
        _check_fields(raw[section], f"{where} '{section}'", ValueError)
    # model and train name their unknown keys when they are built
    for obj, what, known in ((raw, where, ("model", "train", "data", "out_dir", "sampler")),
                             (raw["data"], f"{where} 'data'", ("train", "test")),
                             (raw["sampler"], f"{where} 'sampler'", ("seed",))):
        unknown = sorted(set(obj) - set(known))
        if unknown:
            raise ValueError(f"{what} has unknown keys: {', '.join(unknown)}")
    sampler = _check_fields({"seed": 0, **raw["sampler"]}, f"{where} 'sampler'", ValueError,
                            counts=("seed",))
    try:
        model = DenoiserConfig.from_dict(raw["model"])
        train_cfg = TrainConfig.from_dict(raw["train"])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    _check_patch(train_cfg.patch, model)
    data = raw["data"]
    for split in ("train", "test"):
        entries = data.get(split, [])
        if not isinstance(entries, list):
            raise ValueError(f"{path}: run config data '{split}' is not a JSON list")
        for i, entry in enumerate(entries):
            _check_fields(entry, f"{path}: {split} entry {i}", ValueError,
                          strings=("hrhsi", "lrhsi", "hrmsi"))
            for key in ("hrhsi", "lrhsi", "hrmsi"):
                if not os.path.exists(entry[key]):
                    raise ValueError(f"{path}: referenced path does not exist: {entry[key]!r}")
    return RunConfig(
        model=model,
        train=train_cfg,
        train_data=data.get("train", []),
        test_data=data.get("test", []),
        out_dir=raw["out_dir"],
        sampler=sampler,
    )


def _load_triples(entries) -> list[tuple[HsiCube, HsiCube, HsiCube]]:
    """The (hrhsi, lrhsi, hrmsi) cubes of each run-config data entry."""
    return [tuple(read_cube(e[key]) for key in ("hrhsi", "lrhsi", "hrmsi")) for e in entries]


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(primary_output, command: str, args: dict,
                    seeds: dict | None = None, config_path=None) -> None:
    manifest = {
        "tool": "hsifusion",
        "version": __version__,
        "command": command,
        "args": {k: str(v) for k, v in args.items() if k != "func"},
        "seeds": seeds or {},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if config_path is not None:
        manifest["config_sha256"] = _sha256(config_path)
    _atomic_write_text(str(primary_output) + ".manifest.json",
                       json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cube = read_cube(args.in_path)
    srf = load_srf(args.srf, wavelengths_nm=cube.wavelengths_nm)
    model = ObservationModel(
        block=args.block, srf=srf, noise_std_y=args.noise_y, noise_std_z=args.noise_z
    )
    rng = np.random.default_rng(args.seed)
    y, z = simulate_observations(cube, model, rng)
    write_cube(args.out_lr, y)
    write_cube(args.out_msi, z)
    _write_manifest(args.out_lr, "simulate", vars(args), seeds={"seed": args.seed})
    print(f"wrote {args.out_lr} ({y.bands}x{y.height}x{y.width}) and "
          f"{args.out_msi} ({z.bands}x{z.height}x{z.width})")
    return 0


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    dataset = _load_triples(cfg.train_data)
    if not dataset:
        raise ValueError(f"{args.config}: run config lists no training data")
    n_params = param_count(init_params(cfg.model, np.random.default_rng(0)))
    print(f"training {n_params} parameters for "
          f"{cfg.train.iterations} steps -> {cfg.out_dir}")
    path = train(cfg.train, cfg.model, dataset, cfg.out_dir, resume_from=args.resume)
    _write_manifest(path, "train", vars(args),
                    seeds={"seed": cfg.train.seed}, config_path=args.config)
    print(f"final checkpoint: {path}")
    return 0


def _cmd_fuse(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.schedule is None:
        raise ValueError(f"{args.checkpoint}: checkpoint lacks schedule hyperparameters")
    sched = linear_schedule(ckpt.schedule["T"], ckpt.schedule["beta_end"])
    y = read_cube(args.lr)
    z = read_cube(args.msi)
    tau = select_tau(sched.T, args.steps)
    fused = fuse(
        ckpt.params, ckpt.config, sched, y, z, tau,
        sigma_mode=args.sigma, rng_seed=args.seed,
        tile=args.tile, tile_stride=args.tile_stride,
    )
    write_cube(args.out, fused)
    _write_manifest(args.out, "fuse", vars(args), seeds={"seed": args.seed})
    print(f"fused {args.out} ({fused.bands}x{fused.height}x{fused.width}) "
          f"with {len(tau)} denoising steps")
    return 0


def _cmd_eval(args) -> int:
    ref = read_cube(args.ref)
    est = read_cube(args.est)
    report = FusionReport(scale=args.scale)
    row = report.add(os.path.basename(args.est), ref, est)
    report.save(args.report)
    _write_manifest(args.report, "eval", vars(args))
    print(f"PSNR {row['psnr_db']:.2f} dB | SAM {row['sam_deg']:.3f} deg | "
          f"ERGAS {row['ergas']:.4f} | SSIM {row['ssim']:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = load_run_config(args.config)
    dataset = _load_triples(cfg.train_data)
    test = _load_triples(cfg.test_data)
    if not dataset or not test:
        raise ValueError(f"{args.config}: ablate needs both train and test data in the config")
    steps_list = [int(s) for s in args.steps.split(",")]
    losses = [s.strip() for s in args.losses.split(",")]
    if any(l not in ("l1", "l2") for l in losses):
        raise ValueError(f"losses must be from l1,l2, got {losses}")
    # every step count is checked before the first model trains
    taus = {d: select_tau(cfg.train.T, d) for d in steps_list}

    sched = linear_schedule(cfg.train.T, cfg.train.beta_end)
    seed = cfg.sampler.get("seed", 0)
    grid: dict[str, dict[int, float]] = {}
    times: dict[int, float] = {}
    for loss_name in losses:
        train_cfg = TrainConfig.from_dict({**cfg.train.to_dict(), "loss_p": int(loss_name[1])})
        out_dir = os.path.join(cfg.out_dir, f"ablate_{loss_name}")
        ckpt_path = train(train_cfg, cfg.model, dataset, out_dir)
        ckpt = load_checkpoint(ckpt_path)
        grid[loss_name] = {}
        for d in steps_list:
            psnrs = []
            elapsed = 0.0
            for ref, y, z in test:
                t0 = time.perf_counter()
                fused = fuse(ckpt.params, ckpt.config, sched, y, z, taus[d],
                             sigma_mode="zero", rng_seed=seed)
                elapsed += time.perf_counter() - t0
                psnrs.append(psnr(ref, fused))
            grid[loss_name][d] = float(np.mean(psnrs))
            # the loss does not change fusion cost, so every loss times the
            # same work; the fastest sample is the least disturbed by other load
            times[d] = min(times.get(d, np.inf), elapsed / len(test))

    lines = ["steps\t" + "\t".join(str(d) for d in steps_list)]
    for loss_name in losses:
        lines.append(loss_name + "\t" + "\t".join(f"{grid[loss_name][d]:.2f}" for d in steps_list))
    lines.append("time_s\t" + "\t".join(f"{times[d]:.3f}" for d in steps_list))
    table = "\n".join(lines) + "\n"
    _atomic_write_text(args.report, table)
    _atomic_write_text(str(args.report) + ".json", json.dumps(
        {"steps": steps_list, "psnr": grid, "time_s": times}, indent=2) + "\n")
    _write_manifest(args.report, "ablate", vars(args),
                    seeds={"seed": seed, "train_seed": cfg.train.seed},
                    config_path=args.config)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hsifusion",
        description="Diffusion-based hyperspectral/multispectral image fusion toolkit",
    )
    p.add_argument("--version", action="version", version=f"hsifusion {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="degrade a ground-truth cube into observations")
    s.add_argument("--in", dest="in_path", required=True)
    s.add_argument("--block", type=int, default=32)
    s.add_argument("--srf", required=True)
    s.add_argument("--out-lr", required=True)
    s.add_argument("--out-msi", required=True)
    s.add_argument("--noise-y", type=float, default=0.0)
    s.add_argument("--noise-z", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("train", help="train the denoiser from a run config")
    s.add_argument("--config", required=True)
    s.add_argument("--resume", default=None)
    s.set_defaults(func=_cmd_train)

    s = sub.add_parser("fuse", help="fuse an observed pair with a trained checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--lr", required=True, help="low-resolution cube")
    s.add_argument("--msi", required=True, help="high-resolution few-band cube")
    s.add_argument("--steps", type=int, default=1)
    s.add_argument("--sigma", choices=("zero", "posterior"), default="zero")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tile", type=int, default=None,
                   help="fuse in overlapping tiles of this side; untiled memory grows "
                        "with the square of the pixel count")
    s.add_argument("--tile-stride", type=int, default=48)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_fuse)

    s = sub.add_parser("eval", help="score an estimate against its reference")
    s.add_argument("--ref", required=True)
    s.add_argument("--est", required=True)
    s.add_argument("--scale", type=int, default=32)
    s.add_argument("--report", required=True)
    s.set_defaults(func=_cmd_eval)

    s = sub.add_parser("ablate", help="loss x sampling-steps grid on a run config")
    s.add_argument("--config", required=True)
    s.add_argument("--steps", default="50,20,10,5,2,1")
    s.add_argument("--losses", default="l1,l2")
    s.add_argument("--report", required=True)
    s.set_defaults(func=_cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
