"""Skip-step sampling: fewer denoising steps, proportionally less time.

Uses an untrained (randomly headed) network; output quality is meaningless
here, the point is the step-count / wall-time relationship, the determinism
of the sigma = 0 sampler, and fuses whose memory grows with posterior noise
not at all and with the step count only by the generator states one tile
row hands to the next.
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

# why posterior noise and the step count barely add memory, with the
# benchmark model's figures: see the hsifusion.sampler module docstring
def peak_cubes(d, **kw):
    tracemalloc.start()
    out = hf.fuse(params, cfg, sched, y, z, hf.select_tau(T, d), rng_seed=9, **kw)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20, peak / out.data.nbytes


print("\nsteps  tiled posterior fuse, 32px tiles: tracemalloc peak")
for d in (1, 2, 5, 10, 20):
    mib, cubes = peak_cubes(d, sigma_mode="posterior", tile=32, tile_stride=24)
    print(f"{d:5d}  {mib:5.2f} MiB = {cubes:5.2f} output cubes")

print("\nsteps  untiled fuse: tracemalloc peak, zero / posterior sigma")
for d in (1, 2, 5):
    (_, zero), (_, posterior) = (peak_cubes(d, sigma_mode=m) for m in ("zero", "posterior"))
    print(f"{d:5d}  {zero:5.2f} / {posterior:5.2f} output cubes")
