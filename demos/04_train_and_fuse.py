"""Miniature end-to-end run: simulate, train briefly, fuse, evaluate.

A few hundred optimizer steps on tiny patches are enough to see the loss
fall and the sampler produce structured output; expect real quality only
from much longer runs (the reference setup trains for 250k steps).

The network predicts the clean cube (``prediction="x0"``). At this budget a
noise-predicting network's error is multiplied by about 12 at t = T on this
schedule, and its fusion falls far below the bicubic baseline at any step
count.
"""

import tempfile
import time
import tracemalloc

import numpy as np

import hsifusion as hf

BANDS, SIZE, SCALE, T = 8, 64, 8, 200
STEPS = 300

cubes = hf.make_toy_dataset(8, seed=11, bands=BANDS, size=SIZE, coarse=8)
test_cube = hf.make_toy_dataset(1, seed=99, bands=BANDS, size=SIZE, coarse=8)[0]
model = hf.ObservationModel(block=SCALE, srf=hf.uniform_band_groups(BANDS, 3))
triples = hf.observed_triples(cubes, model)
test_y, test_z = hf.simulate_observations(test_cube, model)

cfg = hf.DenoiserConfig(bands=BANDS, msi_bands=3, scale=SCALE, base_channels=16,
                        channel_multipliers=(1, 2), attention_levels=(),
                        time_embed_dim=64, groups=8, prediction="x0")
train_cfg = hf.TrainConfig(iterations=STEPS, batch_size=4, patch=16, lr_max=1.5e-3,
                           cycle=STEPS, loss_p=1, T=T, beta_end=0.05, seed=0,
                           checkpoint_every=0)

print(f"training {STEPS} steps on {len(triples)} toy cubes ...")
t0 = time.time()
with tempfile.TemporaryDirectory() as tmp:
    ckpt_path = hf.train(train_cfg, cfg, triples, tmp, log_every=50)
    rows = [l.split("\t") for l in open(f"{tmp}/loss_log.tsv")]
    for step, loss, lr in rows:
        print(f"  step {step:>4s}  loss {float(loss):.4f}  lr {float(lr):.2e}")
    ckpt = hf.load_checkpoint(ckpt_path)
print(f"trained in {time.time() - t0:.1f}s")

sched = hf.linear_schedule(T, 0.05)

# train_step backpropagates each batch item as soon as its loss exists, so
# one item's graph is alive at a time and a step's memory barely grows with
# the batch size
print("\nbatch  one train_step: tracemalloc peak")
params = hf.init_params(cfg, np.random.default_rng(0))
opt = hf.AdamState.for_params(params)
rng = np.random.default_rng(0)
for b in (1, 4):
    batch = [hf.sample_patch(triples, train_cfg.patch, SCALE, rng) for _ in range(b)]
    tracemalloc.start()
    hf.train_step(params, opt, batch, sched, train_cfg.loss_p, 0.0, rng, cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{b:5d}  {peak / 2**20:5.2f} MiB")

report = hf.FusionReport(scale=SCALE)
for d in (5, 1):
    t0 = time.time()
    fused = hf.fuse(ckpt.params, cfg, sched, test_y, test_z, hf.select_tau(T, d),
                    sigma_mode="zero", rng_seed=1)
    row = report.add(f"{d}-step", test_cube, fused)
    print(f"{d}-step fusion: PSNR {row['psnr_db']:.2f} dB, SAM {row['sam_deg']:.2f} deg, "
          f"{time.time() - t0:.2f}s")

print("\n(for scale: a fully trained run uses 250k steps at 64x64 patches)")
