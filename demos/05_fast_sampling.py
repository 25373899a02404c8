"""Skip-step sampling: fewer denoising steps, proportionally less time.

Uses an untrained (randomly headed) network; output quality is meaningless
here, the point is the step-count / wall-time relationship, the determinism
of the sigma = 0 sampler, and a tiled fuse whose memory does not grow with
the step count.
"""

import time
import tracemalloc

import numpy as np

import hsifusion as hf

BANDS, SIZE, SCALE, T = 8, 64, 8, 200
rng = np.random.default_rng(0)

cfg = hf.DenoiserConfig(bands=BANDS, msi_bands=3, scale=SCALE, base_channels=16,
                        channel_multipliers=(1, 2), attention_levels=(),
                        time_embed_dim=64, groups=8)
params = hf.init_params(cfg, rng)
params["head.conv.w"].data[:] = 0.05 * rng.normal(
    size=params["head.conv.w"].shape).astype(np.float32)
sched = hf.linear_schedule(T, 0.05)

cube = hf.make_toy_cube(np.random.default_rng(4), bands=BANDS, size=SIZE)
obs = hf.ObservationModel(block=SCALE, srf=hf.uniform_band_groups(BANDS, 3))
y, z = hf.simulate_observations(cube, obs)

print("steps  tau (first..last)        time")
for d in (50, 20, 10, 5, 2, 1):
    tau = hf.select_tau(T, d)
    t0 = time.time()
    hf.fuse(params, cfg, sched, y, z, tau, sigma_mode="zero", rng_seed=1)
    span = f"{tau.steps[0]}..{tau.steps[-1]}" if len(tau) > 1 else f"{tau.steps[0]}"
    print(f"{d:5d}  {span:22s}  {time.time() - t0:6.2f}s")

a = hf.fuse(params, cfg, sched, y, z, hf.select_tau(T, 2), rng_seed=9).data
b = hf.fuse(params, cfg, sched, y, z, hf.select_tau(T, 2), rng_seed=9).data
print(f"\nsame seed, same bytes: {np.array_equal(a, b)}")

# fusion is step-major: every tile takes step i before any takes step i+1,
# and each step's posterior noise field is drawn only when that step runs,
# so the memory of a tiled fuse stays flat as the step count grows
print("\nsteps  tiled posterior fuse, 32px tiles: tracemalloc peak")
for d in (1, 2, 5, 10, 20):
    tracemalloc.start()
    tiled = hf.fuse(params, cfg, sched, y, z, hf.select_tau(T, d), sigma_mode="posterior",
                    rng_seed=9, tile=32, tile_stride=24)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{d:5d}  {peak / 2**20:5.2f} MiB = {peak / tiled.data.nbytes:5.2f} output cubes")
