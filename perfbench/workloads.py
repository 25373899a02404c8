"""Seeded inputs, set-up, requests and output checks of the benchmark workloads.

Every workload uses the README's 2.0M-parameter model (31 bands, 3-band MSI,
scale 8, base channels 32, multipliers (1, 2, 4), attention at level 2) with
a linear schedule of T = 1000 steps. The weights come from a fixed model seed,
so the stored references in ``refs.json`` hold whatever ``--seed`` a run
uses; the seed drives the scenes, the sampler noise and the training draws.

All hsifusion calls go through module attributes (``hs.fuse``, ...) looked up
at call time, so an installed ``spans.Tracer`` sees them.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

import hsifusion as hs

CFG = hs.DenoiserConfig(
    bands=31, msi_bands=3, scale=8, base_channels=32,
    channel_multipliers=(1, 2, 4), attention_levels=(2,), time_embed_dim=128, groups=8,
)
SCHEDULE = {"T": 1000, "beta_end": 0.01}
MODEL_SEED = 2307
REF_SEED = 3423
SRF_PATH = os.path.join(os.path.dirname(hs.__file__), "srf", "rgb_3band.csv")
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

SCENES = 3            # distinct scenes a fuse workload cycles through
TILE_STRIDE = 48
TRAIN_SCENES = 2      # 128x128 training cubes
TRAIN_SIZE = 128
BATCH = 4
PATCH = 32
CHUNK = 5             # optimizer steps per resumable train() call
LR_MAX = 1e-4

PROBE_SIZE = 64
PROBE_TIMESTEPS = (1, 500, 1000)
PROBE_POINTS = 256
FUSE_POINTS = 1024
# Tolerances. A kernel that changes its float32 summation order moves the
# probe by a relative RMS of about 1e-4 (measured between 1 and 2 BLAS
# threads) and flips a few fused voxels near the clip edges, where the
# untrained network amplifies any difference; a broken kernel changes the
# probe by order 1 and about half of all fused voxels.
PROBE_REL_RMS = 1e-2
FUSE_ATOL = 0.05        # a fused voxel further off than this is a mismatch
FUSE_MISMATCH = 0.05    # allowed share of mismatched points
CLIP_FRAC_ATOL = 2e-3   # allowed change of the mean and the clipped shares
LOSS_RTOL = 1e-3


def make_params(seed: int = MODEL_SEED) -> dict:
    """The benchmark model's weights.

    ``init_params`` zeroes the output head and every attention output
    projection. Left at zero, the network's output never reaches the fused
    cube and attention is a passthrough, so neither would show in the output
    checks; both get Kaiming-uniform values from the same seeded stream.
    """
    rng = np.random.default_rng(seed)
    params = hs.init_params(CFG, rng)
    for name, p in params.items():
        if name == "head.conv.w" or name.endswith(".wo"):
            bound = math.sqrt(6.0 / p.data[0].size)
            p.data[...] = rng.uniform(-bound, bound, size=p.shape)
    return params


def make_scene(rng: np.random.Generator, size: int, name: str):
    """(ground truth, low-resolution HSI, MSI) cubes of one synthetic scene."""
    gt = hs.make_toy_cube(rng, bands=CFG.bands, size=size, n_endmembers=4, name=name)
    obs = hs.ObservationModel(block=CFG.scale, srf=hs.load_srf(SRF_PATH))
    y, z = hs.simulate_observations(gt, obs)
    return gt, y, z


def write_scene(workdir: str, rng: np.random.Generator, size: int, name: str) -> dict:
    paths = {"name": name}
    for key, cube in zip(("gt", "y", "z"), make_scene(rng, size, name)):
        paths[key] = os.path.join(workdir, f"{name}.{key}.hsic")
        hs.write_cube(paths[key], cube)
    return paths


def read_scene(paths: dict):
    return tuple(hs.read_cube(paths[key]) for key in ("gt", "y", "z"))


# ---------------------------------------------------------------------------
# Output digests and checks
# ---------------------------------------------------------------------------


def digest(arr: np.ndarray, points: int, clipped: bool = False) -> dict:
    """Shape, mean and values at fixed random points of ``arr``; for a cube
    clipped to [0, 1] also the shares of voxels at 0 and at 1."""
    flat = np.asarray(arr, dtype=np.float64).ravel()
    rng = np.random.default_rng(0)
    idx = np.sort(rng.choice(flat.size, size=min(points, flat.size), replace=False))
    out = {"shape": list(np.shape(arr)), "mean": float(flat.mean()),
           "idx": idx.tolist(), "values": flat[idx].tolist()}
    if clipped:
        out["frac0"] = float(np.mean(flat == 0.0))
        out["frac1"] = float(np.mean(flat == 1.0))
    return out


def _shape_problems(label: str, arr: np.ndarray, ref: dict) -> list[str]:
    if list(np.shape(arr)) != ref["shape"]:
        return [f"{label}: shape {list(np.shape(arr))} != reference {ref['shape']}"]
    if not np.all(np.isfinite(arr)):
        return [f"{label}: non-finite values"]
    return []


def compare_probe(label: str, arr: np.ndarray, ref: dict) -> list[str]:
    """Relative RMS difference from the stored digest at its points."""
    problems = _shape_problems(label, arr, ref)
    if problems:
        return problems
    got = np.asarray(arr, dtype=np.float64).ravel()[ref["idx"]]
    want = np.asarray(ref["values"])
    rel = float(np.sqrt(np.mean((got - want) ** 2) / np.mean(want**2)))
    if rel > PROBE_REL_RMS:
        return [f"{label}: relative RMS difference {rel:.3g} > {PROBE_REL_RMS:g}"]
    return []


def compare_fused(label: str, arr: np.ndarray, ref: dict) -> list[str]:
    """Mismatched voxels at the digest's points, mean and clipped shares."""
    problems = _shape_problems(label, arr, ref)
    if problems:
        return problems
    flat = np.asarray(arr, dtype=np.float64).ravel()
    off = float(np.mean(np.abs(flat[ref["idx"]] - np.asarray(ref["values"])) > FUSE_ATOL))
    if off > FUSE_MISMATCH:
        problems.append(f"{label}: {off:.1%} of reference points off by > {FUSE_ATOL:g}")
    for key, value in (("mean", flat.mean()), ("frac0", np.mean(flat == 0.0)),
                       ("frac1", np.mean(flat == 1.0))):
        if abs(value - ref[key]) > CLIP_FRAC_ATOL:
            problems.append(f"{label}: {key} {value:.5g} != reference {ref[key]:.5g}")
    return problems


def check_fused(data: np.ndarray, size: int) -> list[str]:
    if data.shape != (CFG.bands, size, size):
        return [f"fused shape {data.shape} != {(CFG.bands, size, size)}"]
    if not np.all(np.isfinite(data)):
        return ["fused cube has non-finite values"]
    if data.min() < 0.0 or data.max() > 1.0:
        return [f"fused values outside [0, 1]: [{data.min():g}, {data.max():g}]"]
    return []


def check_report_row(row: dict) -> list[str]:
    bad = [k for k in ("psnr_db", "sam_rad", "ergas", "ssim") if not np.isfinite(row[k])]
    return [f"report row has non-finite {bad}"] if bad else []


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def probe(params) -> dict[str, np.ndarray]:
    """Unclipped network outputs on a fixed input, one per probe timestep."""
    rng = np.random.default_rng(REF_SEED)
    _, y, z = make_scene(rng, PROBE_SIZE, "probe")
    xt = rng.standard_normal((CFG.bands, PROBE_SIZE, PROBE_SIZE)).astype(np.float32)
    cond = hs.assemble_condition(xt, y.data, z.data)
    return {str(t): hs.predict_noise(params, CFG, cond, t).data for t in PROBE_TIMESTEPS}


def check_probe(params, refs: dict) -> list[str]:
    return [p for t, out in probe(params).items()
            for p in compare_probe(f"probe t={t}", out, refs["probe"][t])]


# ---------------------------------------------------------------------------
# Fuse workloads
# ---------------------------------------------------------------------------


class FuseBench:
    """Closed loop, one client: read cubes -> fuse -> write_cube -> FusionReport.add."""

    unit_span = None  # one request is one scene

    def __init__(self, name, seed, workdir, size, steps, sigma_mode, tile, ref_size):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.size, self.steps, self.sigma_mode, self.tile = size, steps, sigma_mode, tile
        self.ref_size = ref_size
        self.kpix_per_unit = CFG.bands * size * size / 1000.0
        self.ckpt_path = os.path.join(workdir, "model.ckpt")

    def generate(self) -> None:
        hs.save_checkpoint(self.ckpt_path, CFG, make_params(), schedule=SCHEDULE)
        rng = np.random.default_rng([self.seed, 1])
        self.scenes = [write_scene(self.workdir, rng, self.size, f"scene{i}")
                       for i in range(SCENES)]

    def setup(self) -> None:
        ckpt = hs.load_checkpoint(self.ckpt_path)
        self.params, self.cfg = ckpt.params, ckpt.config
        self.sched = hs.linear_schedule(ckpt.schedule["T"], ckpt.schedule["beta_end"])
        self.report = hs.FusionReport(scale=self.cfg.scale)
        # warm-up: one whole request at the workload's size and tiling with a
        # single network evaluation per tile
        self._fuse_request(self.scenes[0], self._tau(1), "warmup", 0)
        self.report = hs.FusionReport(scale=self.cfg.scale)

    def _tau(self, steps: int):
        return hs.select_tau(self.sched.T, steps)

    def _fuse_request(self, paths, tau, out_name, rng_seed):
        gt, y, z = read_scene(paths)
        fused = hs.fuse(self.params, self.cfg, self.sched, y, z, tau,
                        sigma_mode=self.sigma_mode, rng_seed=rng_seed,
                        tile=self.tile, tile_stride=TILE_STRIDE)
        hs.write_cube(os.path.join(self.workdir, f"{out_name}.fused.hsic"), fused)
        row = self.report.add(paths["name"], gt, fused)
        return fused, row

    def request(self, i: int) -> list[str]:
        """Fuse scene ``i`` (cycling); returns the problems its checks found."""
        paths = self.scenes[i % len(self.scenes)]
        rng_seed = int(np.random.default_rng([self.seed, 2, i]).integers(2**31))
        fused, row = self._fuse_request(paths, self._tau(self.steps), f"req{i}", rng_seed)
        return check_fused(fused.data, self.size) + check_report_row(row)

    def reference_outputs(self, params) -> dict:
        rng = np.random.default_rng([REF_SEED, self.ref_size])
        _, y, z = make_scene(rng, self.ref_size, "reference")
        fused = hs.fuse(params, CFG, hs.linear_schedule(SCHEDULE["T"], SCHEDULE["beta_end"]),
                        y, z, hs.select_tau(SCHEDULE["T"], self.steps),
                        sigma_mode=self.sigma_mode, rng_seed=REF_SEED,
                        tile=self.tile, tile_stride=TILE_STRIDE)
        return {"fused": fused.data}

    def reference_checks(self, refs: dict) -> dict[str, list[str]]:
        """Network probe and a reference-size fusion against ``refs``."""
        fused = self.reference_outputs(self.params)["fused"]
        return {
            "probe": check_probe(self.params, refs),
            "reference_fuse": check_fused(fused, self.ref_size)
            + compare_fused("reference fuse", fused, refs[self.name]["fused"]),
        }


# ---------------------------------------------------------------------------
# Train workload
# ---------------------------------------------------------------------------


class TrainBench:
    """train() driven in resumable chunks: every chunk loads the previous
    checkpoint with its Adam moments, runs CHUNK steps and saves again."""

    unit_span = "trainer.train_step"  # latency is per optimizer step
    kpix_per_unit = BATCH * CFG.bands * PATCH * PATCH / 1000.0

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.setups = 0

    def _train_cfg(self, iterations: int, seed: int) -> hs.TrainConfig:
        return hs.TrainConfig(
            iterations=iterations, batch_size=BATCH, patch=PATCH, lr_max=LR_MAX,
            cycle=10_000, loss_p=1, T=SCHEDULE["T"], beta_end=SCHEDULE["beta_end"],
            seed=seed, checkpoint_every=0,
        )

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.scenes = [write_scene(self.workdir, rng, TRAIN_SIZE, f"train{i}")
                       for i in range(TRAIN_SCENES)]

    def setup(self) -> None:
        self.setups += 1
        run_dir = os.path.join(self.workdir, f"setup{self.setups}")
        os.makedirs(run_dir)
        params = make_params()
        opt = hs.AdamState.for_params(params)
        self.step0 = os.path.join(run_dir, "step0.ckpt")
        hs.save_checkpoint(self.step0, CFG, params, opt.to_dict(), 0, schedule=SCHEDULE)
        self.dataset = [tuple(c.data for c in read_scene(p)) for p in self.scenes]
        # warm-up: one resumable chunk of a single step from the fresh state
        warm = os.path.join(run_dir, "warmup")
        hs.train(self._train_cfg(1, self.seed), CFG, self.dataset, warm, resume_from=self.step0)
        self.warm_loss = _read_losses(warm)[0]
        self.job_dir = os.path.join(run_dir, "job")
        self.resume_from = self.step0
        self.done = 0

    def request(self, i: int) -> list[str]:
        """Train one chunk; returns the problems its checks found."""
        target = self.done + CHUNK
        self.resume_from = hs.train(self._train_cfg(target, self.seed), CFG, self.dataset,
                                    self.job_dir, resume_from=self.resume_from)
        losses = _read_losses(self.job_dir)
        new = losses[self.done:]
        first_chunk = self.done == 0
        self.done = target
        problems = []
        if len(new) != CHUNK:
            problems.append(f"chunk logged {len(new)} losses, expected {CHUNK}")
        if not all(math.isfinite(v) and v > 0 for v in new):
            problems.append(f"chunk losses not finite and positive: {new}")
        if first_chunk and new and new[0] != self.warm_loss:
            problems.append(f"first step loss {new[0]} != warm-up loss {self.warm_loss}")
        return problems

    def reference_outputs(self) -> dict:
        """Loss trace of a first chunk on the reference scene."""
        ref_dir = os.path.join(self.workdir, "reference")
        shutil.rmtree(ref_dir, ignore_errors=True)
        os.makedirs(ref_dir)
        params = make_params()
        step0 = os.path.join(ref_dir, "step0.ckpt")
        hs.save_checkpoint(step0, CFG, params, hs.AdamState.for_params(params).to_dict(), 0,
                           schedule=SCHEDULE)
        rng = np.random.default_rng([REF_SEED, PROBE_SIZE])
        dataset = [tuple(c.data for c in make_scene(rng, PROBE_SIZE, "reference"))]
        hs.train(self._train_cfg(2, REF_SEED), CFG, dataset, ref_dir, resume_from=step0)
        return {"losses": _read_losses(ref_dir)}

    def reference_checks(self, refs: dict) -> dict[str, list[str]]:
        """Network probe and a reference first-chunk loss trace against ``refs``."""
        losses = self.reference_outputs()["losses"]
        want = refs[self.name]["losses"]
        problems = []
        if len(losses) != len(want) or any(
            abs(a - b) > LOSS_RTOL * abs(b) for a, b in zip(losses, want)
        ):
            problems.append(f"reference loss trace {losses} != {want} (rtol {LOSS_RTOL:g})")
        return {"probe": check_probe(make_params(), refs), "reference_train": problems}


def _read_losses(out_dir: str) -> list[float]:
    with open(os.path.join(out_dir, "loss_log.tsv"), encoding="utf-8") as fh:
        return [float(line.split("\t")[1]) for line in fh if line.strip()]


WORKLOADS = {
    # the network's kernels dominate: conv GEMMs, silu, group_norm and
    # 1024-token attention at level 2 and mid
    "fuse-whole": lambda seed, workdir: FuseBench(
        "fuse-whole", seed, workdir, size=128, steps=5, sigma_mode="zero", tile=None,
        ref_size=64),
    # 25 tiles of 64x64: many small network calls (256-token attention), plus
    # per-tile noise crops, feathered blending and 4x larger cube I/O
    "fuse-tiled": lambda seed, workdir: FuseBench(
        "fuse-tiled", seed, workdir, size=256, steps=2, sigma_mode="posterior", tile=64,
        ref_size=112),
    # the only workload running the adjoints, Adam and checkpoint writes
    "train": lambda seed, workdir: TrainBench("train", seed, workdir),
}
