"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 5 trains the small end-to-end fusion model once (module-scoped
fixture); criterion 6 reuses the same synthetic dataset through the command
line. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

import hsifusion as hf
import hsifusion.autodiff as ad
from hsifusion.autodiff import Tensor, backward, mean_all, mul
from hsifusion.ops import bicubic_upsample
from hsifusion import ops

from oracles import assert_grads_match, ergas_loops, sam_loops, stepwise_chain


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] {label}: FAIL")
                raise
            print(f"\n[criterion {num}] {label}: PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. Diffusion-math identities
# ---------------------------------------------------------------------------


@criterion(1, "diffusion-math identities")
def test_criterion_1_diffusion_math():
    rng = np.random.default_rng(101)
    sched = hf.linear_schedule(50, 0.3)

    # deterministic coefficient check: stepwise product equals alpha_bar
    prod = 1.0
    for t in range(1, 51):
        prod *= 1.0 - sched.beta(t)
        assert prod == pytest.approx(sched.alpha_bar(t), rel=1e-12)

    # Monte-Carlo: stepwise kernel composition vs closed-form marginal
    n, t_mc, x0_val = 10_000, 37, 0.6
    x0 = np.full(n, x0_val)
    c_sig, c_noise = hf.marginal_coeffs(sched, t_mc)
    closed = hf.q_sample(x0, t_mc, rng.standard_normal(n), sched)
    chain = stepwise_chain(x0, t_mc, sched.betas, rng)
    se_mean = c_noise / math.sqrt(n)
    se_std = c_noise / math.sqrt(2 * n)
    for draws in (closed, chain):
        assert abs(draws.mean() - c_sig * x0_val) < 4 * se_mean
        assert abs(draws.std() - c_noise) < 4 * se_std

    # posterior parameterizations agree for every t
    x0t = rng.normal(size=(3, 6, 6))
    for t in range(1, 51):
        eps = rng.standard_normal(x0t.shape)
        xt = hf.q_sample(x0t, t, eps, sched)
        a = hf.posterior_mean(xt, x0t, t, sched)
        b = hf.posterior_mean_from_eps(xt, eps, t, sched)
        np.testing.assert_allclose(a, b, atol=1e-6)

    # per-step KL equals the eps-space quadratic form
    for t in (2, 9, 25, 50):
        eps = rng.standard_normal(x0t.shape)
        eps_hat = rng.standard_normal(x0t.shape)
        xt = hf.q_sample(x0t, t, eps, sched)
        mean_pred = hf.posterior_mean_from_eps(xt, eps_hat, t, sched)
        kl = hf.step_kl(xt, x0t, mean_pred, t, sched)
        beta = sched.beta(t)
        var = hf.posterior_coeffs(sched, t)[2]
        coeff = beta**2 / (2 * var * (1 - beta) * (1 - sched.alpha_bar(t)))
        assert kl == pytest.approx(coeff * np.sum((eps - eps_hat) ** 2), rel=1e-6)


# ---------------------------------------------------------------------------
# 2. DDIM / ancestral equivalence
# ---------------------------------------------------------------------------


@criterion(2, "DDIM/DDPM trajectory equivalence")
def test_criterion_2_ddim_ddpm_equivalence():
    rng = np.random.default_rng(202)
    sched = hf.linear_schedule(50, 0.25)
    x0 = rng.normal(size=(2, 6, 6))
    eps0 = rng.standard_normal(x0.shape)
    x_ddpm = hf.q_sample(x0, 50, eps0, sched)
    x_ddim = x_ddpm.copy()
    for t in range(50, 0, -1):
        eps_hat = rng.standard_normal(x0.shape)  # stand-in for a denoiser
        zeta = rng.standard_normal(x0.shape)
        var = hf.posterior_coeffs(sched, t)[2]
        mean = hf.posterior_mean_from_eps(x_ddpm, eps_hat, t, sched)
        x_ddpm = mean + (np.sqrt(var) * zeta if t > 1 else 0.0)
        x_ddim = hf.ddim_step(x_ddim, eps_hat, t, t - 1, np.sqrt(var), sched, noise=zeta)
        np.testing.assert_allclose(x_ddim, x_ddpm, atol=1e-5)


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------


@criterion(3, "gradient checks for primitives and composed denoiser")
def test_criterion_3_gradients(f64):
    rng = np.random.default_rng(303)

    def sq(out):
        return mean_all(mul(out, out))

    # every differentiable primitive against central finite differences
    x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    assert_grads_match(lambda: sq(ops.conv2d(x, k, 1, 1)), [x, k])

    xb = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    assert_grads_match(lambda: sq(ops.bicubic_upsample(xb, 2)), [xb])

    xg = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.normal(size=(4,)), requires_grad=True)
    beta = Tensor(rng.normal(size=(4,)), requires_grad=True)
    assert_grads_match(lambda: sq(ops.group_norm(xg, 2, gamma, beta)), [xg, gamma, beta])

    xa = Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
    mats = [Tensor(rng.normal(size=(3, 3)) * 0.5, requires_grad=True) for _ in range(4)]
    assert_grads_match(lambda: sq(ops.self_attention(xa, *mats)), [xa] + mats)

    xs = Tensor(rng.normal(size=(8,)), requires_grad=True)
    assert_grads_match(lambda: sq(ops.silu(xs)), [xs])

    a = Tensor(rng.normal(size=(6,)), requires_grad=True)
    b = Tensor(rng.normal(size=(6,)), requires_grad=True)
    assert_grads_match(lambda: sq(ad.add(a, b)), [a, b])
    assert_grads_match(lambda: sq(ad.mul(a, b)), [a, b])

    xc = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    yc = Tensor(rng.normal(size=(1, 3, 3)), requires_grad=True)
    assert_grads_match(lambda: sq(ops.concat_channels([xc, yc])), [xc, yc])
    assert_grads_match(lambda: sq(ops.upsample_nearest(xc, 2)), [xc])

    xd = Tensor(rng.normal(size=(4,)), requires_grad=True)
    wd = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    bd = Tensor(rng.normal(size=(3,)), requires_grad=True)
    assert_grads_match(lambda: sq(ops.dense(xd, wd, bd)), [xd, wd, bd])

    xab = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    bab = Tensor(rng.normal(size=(3,)), requires_grad=True)
    assert_grads_match(lambda: sq(ops.add_channel_bias(xab, bab)), [xab, bab])

    # the fused layers, from their own draws so the sampled subset below stays
    frng = np.random.default_rng(304)
    xf = Tensor(frng.normal(size=(2, 5, 5)), requires_grad=True)
    kf = Tensor(frng.normal(size=(4, 2, 3, 3)), requires_grad=True)
    bf = Tensor(frng.normal(size=(4,)), requires_grad=True)
    for stride in (1, 2):
        assert_grads_match(lambda: sq(ops.conv2d(xf, kf, stride, 1, bias=bf)), [xf, kf, bf])
    xn = Tensor(frng.normal(size=(4, 3, 3)), requires_grad=True)
    gn = Tensor(frng.normal(size=(4,)), requires_grad=True)
    bn = Tensor(frng.normal(size=(4,)), requires_grad=True)
    assert_grads_match(lambda: sq(ops.group_norm(xn, 2, gn, bn, silu=True)), [xn, gn, bn])

    # composed tiny denoiser end to end on a sampled parameter subset
    from oracles import numerical_grad

    cfg = hf.DenoiserConfig(bands=2, msi_bands=1, scale=4, base_channels=8,
                            channel_multipliers=(1, 2), attention_levels=(1,),
                            time_embed_dim=8, groups=4)
    params = hf.init_params(cfg, rng)
    params["head.conv.w"].data[:] = 0.2 * rng.normal(size=params["head.conv.w"].shape)
    xt = rng.normal(size=(2, 8, 8))
    y = rng.normal(size=(2, 2, 2))
    z = rng.normal(size=(1, 8, 8))
    target = rng.normal(size=(2, 8, 8))

    def loss():
        cond = hf.assemble_condition(xt, y, z)
        return hf.simple_loss(target, hf.predict_noise(params, cfg, cond, 5), 2)

    backward(loss())
    names = sorted(params)
    for name in [names[i] for i in rng.choice(len(names), size=6, replace=False)]:
        p = params[name]
        fd = numerical_grad(loss, p)
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        rel = np.abs(got - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-3, f"{name}: rel err {rel.max():.2e}"


# ---------------------------------------------------------------------------
# 4. Metric oracles
# ---------------------------------------------------------------------------


@criterion(4, "metric oracles and ideal values")
def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(404)
    ref = hf.HsiCube(rng.uniform(20, 235, size=(4, 16, 16)).astype(np.float32),
                     value_range=(0.0, 255.0))

    # uniform +1 offset in 8-bit units
    est = hf.HsiCube((ref.data + 1.0).astype(np.float32), value_range=(0.0, 255.0))
    assert hf.psnr(ref, est) == pytest.approx(48.13, abs=0.01)

    # orthogonal spectra
    o_ref = hf.HsiCube(np.stack([np.ones((2, 2)), np.zeros((2, 2))]).astype(np.float32),
                       value_range=(0.0, 255.0))
    o_est = hf.HsiCube(np.stack([np.zeros((2, 2)), np.ones((2, 2))]).astype(np.float32),
                       value_range=(0.0, 255.0))
    assert hf.sam(o_ref, o_est) == math.pi / 2

    # ideal values on identical inputs
    big = hf.HsiCube(rng.uniform(10, 245, size=(3, 12, 12)).astype(np.float32),
                     value_range=(0.0, 255.0))
    assert hf.psnr(big, big) == math.inf
    assert hf.sam(big, big) == 0.0
    assert hf.ergas(big, big, 32) == 0.0
    assert hf.ssim(big, big) == pytest.approx(1.0)

    # brute-force loop oracles
    a = rng.uniform(1, 255, size=(5, 7, 6)).astype(np.float32).astype(np.float64)
    b = rng.uniform(1, 255, size=(5, 7, 6)).astype(np.float32).astype(np.float64)
    ca = hf.HsiCube(a, value_range=(0.0, 255.0))
    cb = hf.HsiCube(b, value_range=(0.0, 255.0))
    assert hf.sam(ca, cb) == pytest.approx(sam_loops(a, b), abs=1e-8)
    assert hf.ergas(ca, cb, 8) == pytest.approx(ergas_loops(a, b, 8), abs=1e-8)


# ---------------------------------------------------------------------------
# 5. Toy end-to-end fusion
# ---------------------------------------------------------------------------

TOY = dict(bands=8, size=64, scale=8, T=200, beta_end=0.05, steps=3000,
           coarse=16, batch=4, patch=24, lr=1.5e-3, loss_p=1)


def toy_model_config():
    # predicts the clean cube: the criterion-5 docstring shows why eps cannot
    # reach the margin at this budget
    return hf.DenoiserConfig(
        bands=TOY["bands"], msi_bands=3, scale=TOY["scale"], base_channels=16,
        channel_multipliers=(1, 2), attention_levels=(), time_embed_dim=64, groups=8,
        prediction="x0",
    )


def build_toy_data():
    train_cubes = hf.make_toy_dataset(20, seed=11, bands=TOY["bands"],
                                      size=TOY["size"], coarse=TOY["coarse"])
    test_cubes = hf.make_toy_dataset(4, seed=77, bands=TOY["bands"],
                                     size=TOY["size"], coarse=TOY["coarse"])
    obs = hf.ObservationModel(block=TOY["scale"],
                              srf=hf.uniform_band_groups(TOY["bands"], 3))
    return train_cubes, test_cubes, obs


@pytest.fixture(scope="module")
def trained_toy(tmp_path_factory):
    """Train the tiny fusion model once for criteria 5; ~5 minutes on CPU."""
    train_cubes, test_cubes, obs = build_toy_data()
    train_triples = hf.observed_triples(train_cubes, obs)
    test_triples = hf.observed_triples(test_cubes, obs)
    cfg = toy_model_config()
    tc = hf.TrainConfig(iterations=TOY["steps"], batch_size=TOY["batch"],
                        patch=TOY["patch"], lr_max=TOY["lr"], cycle=TOY["steps"],
                        loss_p=TOY["loss_p"], T=TOY["T"], beta_end=TOY["beta_end"],
                        seed=5, checkpoint_every=0)
    out = tmp_path_factory.mktemp("toy_run")
    path = hf.train(tc, cfg, train_triples, out, log_every=500)
    ckpt = hf.load_checkpoint(path)
    sched = hf.linear_schedule(TOY["T"], TOY["beta_end"])
    return ckpt, cfg, sched, test_cubes, test_triples


def _fused_psnr(ckpt, cfg, sched, test_cubes, test_triples, d):
    vals = []
    for cube, (x0, y, z) in zip(test_cubes, test_triples):
        fused = hf.fuse(ckpt.params, cfg, sched, y, z,
                        hf.select_tau(sched.T, d), sigma_mode="zero", rng_seed=123)
        vals.append(hf.psnr(cube, fused))
    return float(np.mean(vals))


@criterion(5, "toy end-to-end fusion margins")
def test_criterion_5_toy_end_to_end(trained_toy):
    """3,000-step toy training; 1-step fusion vs the bicubic baseline.

    The toy schedule (T = 200, beta_end = 0.05) ends at ab_T = 0.0064, so at
    t = T an error in a noise estimate reaches the clean-cube estimate
    multiplied by sqrt((1-ab_T)/ab_T) = 12.4, and the margin would need the
    noise error below ~0.008 rms. The toy model therefore predicts x0
    (``toy_model_config``). Measured on this data, budget and seeds, with
    the network's output read at a true x_t on the four test cubes:

      t                     1     20    40    80    120   160   200
      eps model: eps rms    0.85  0.17  0.12  0.10  0.11  0.11  0.12
      eps model: x0 dB      37.6  28.5  25.2  20.0  15.3  10.8   7.5
      x0 model:  x0 dB      22.3  22.4  22.2  22.3  22.3  22.3  22.2
      x0 model:  eps rms    5.34  0.36  0.18  0.08  0.04  0.02  0.007

    Fusion (baseline 17.75 dB) at d = 1 / 5 / 20 / 50 steps gives 5.25 /
    4.34 / 4.27 / 4.26 dB with the eps model and 22.14 / 22.20 / 22.23 /
    22.30 dB with the x0 model. The eps shortfall is not specific to one
    step: more steps do no better, because every step carries the poor
    large-t estimate down.
    """
    ckpt, cfg, sched, test_cubes, test_triples = trained_toy

    base_vals = []
    for cube, (x0, y, z) in zip(test_cubes, test_triples):
        up = np.clip(bicubic_upsample(hf.Tensor(y), TOY["scale"]).data, 0.0, 1.0)
        base_vals.append(hf.psnr(cube, hf.HsiCube(up.astype(np.float32))))
    baseline = float(np.mean(base_vals))

    psnr_1 = _fused_psnr(ckpt, cfg, sched, test_cubes, test_triples, 1)
    psnr_5 = _fused_psnr(ckpt, cfg, sched, test_cubes, test_triples, 5)

    print(f"\n  baseline {baseline:.2f} dB | 1-step {psnr_1:.2f} dB | "
          f"5-step {psnr_5:.2f} dB")
    assert abs(psnr_1 - psnr_5) <= 1.0, (
        f"1-step {psnr_1:.2f} dB vs 5-step {psnr_5:.2f} dB differ by more than 1 dB"
    )
    assert psnr_1 >= baseline + 2.0, (
        f"1-step fusion {psnr_1:.2f} dB does not exceed the bicubic baseline "
        f"{baseline:.2f} dB by 2 dB (shortfall {baseline + 2.0 - psnr_1:.2f} dB)"
    )


# ---------------------------------------------------------------------------
# 6. Ablation harness shape parity and timing monotonicity
# ---------------------------------------------------------------------------


@criterion(6, "ablation grid shape and timing monotonicity")
def test_criterion_6_ablation_harness(tmp_path):
    from hsifusion.cli import main as cli_main
    from hsifusion.datacube import write_cube

    train_cubes, test_cubes, obs = build_toy_data()
    entries = {"train": [], "test": []}
    for split, cubes in (("train", train_cubes[:4]), ("test", test_cubes[:2])):
        for i, cube in enumerate(cubes):
            y, z = hf.simulate_observations(cube, obs)
            entry = {}
            for key, c in (("hrhsi", cube), ("lrhsi", y), ("hrmsi", z)):
                p = tmp_path / f"{split}{i}_{key}.hsic"
                write_cube(p, c)
                entry[key] = str(p)
            entries[split].append(entry)

    run_cfg = {
        "model": toy_model_config().to_dict(),
        "train": {"iterations": 40, "batch_size": 2, "patch": 16,
                  "lr_max": 1e-3, "cycle": 40, "loss_p": 1, "T": TOY["T"],
                  "beta_end": TOY["beta_end"], "seed": 1, "checkpoint_every": 0},
        "data": entries,
        "out_dir": str(tmp_path / "run"),
        "sampler": {"seed": 3},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_cfg))
    report = tmp_path / "grid.tsv"
    rc = cli_main(["ablate", "--config", str(cfg_path),
                   "--steps", "50,20,10,5,2,1", "--losses", "l1,l2",
                   "--report", str(report)])
    assert rc == 0

    lines = report.read_text().splitlines()
    assert lines[0].split("\t") == ["steps", "50", "20", "10", "5", "2", "1"]
    assert [l.split("\t")[0] for l in lines] == ["steps", "l1", "l2", "time_s"]
    times = [float(v) for v in lines[3].split("\t")[1:]]
    assert all(a > b for a, b in zip(times, times[1:])), (
        f"fusion wall time not strictly decreasing over step counts: {times}"
    )


# ---------------------------------------------------------------------------
# 7. Pipeline self-consistency
# ---------------------------------------------------------------------------


@criterion(7, "pipeline self-consistency")
def test_criterion_7_pipeline_self_consistency(tmp_path):
    from hsifusion.cli import main as cli_main
    from hsifusion.datacube import read_cube, write_cube
    from hsifusion.degrade import spatial_degrade
    from hsifusion.trainer import sample_patch

    rng = np.random.default_rng(700)
    cubes = hf.make_toy_dataset(3, seed=1, bands=4, size=32, coarse=8)
    obs = hf.ObservationModel(block=4, srf=hf.uniform_band_groups(4, 2))

    # simulate output equals direct block averaging exactly (noise off)
    gt_path = tmp_path / "gt.hsic"
    write_cube(gt_path, cubes[0])
    srf_path = tmp_path / "srf.csv"
    srf_path.write_text("400,500,600,700\n1,1,0,0\n0,0,1,1\n")
    rc = cli_main(["simulate", "--in", str(gt_path), "--block", "4",
                   "--srf", str(srf_path), "--out-lr", str(tmp_path / "lr.hsic"),
                   "--out-msi", str(tmp_path / "msi.hsic")])
    assert rc == 0
    written = read_cube(tmp_path / "lr.hsic")
    direct = spatial_degrade(read_cube(gt_path), obs)
    np.testing.assert_array_equal(written.data, direct.astype(np.float32))

    # training patches re-degrade to their paired low-resolution patches
    triples = hf.observed_triples(cubes, obs)
    for _ in range(25):
        xp, yp, zp = sample_patch(triples, 8, 4, rng)
        np.testing.assert_array_equal(spatial_degrade(xp, obs), yp)


# ---------------------------------------------------------------------------
# 8. Persistence
# ---------------------------------------------------------------------------


@criterion(8, "persistence round-trips and seeded resume")
def test_criterion_8_persistence(tmp_path, rng):
    from hsifusion.checkpoint import load_checkpoint, save_checkpoint
    from hsifusion.datacube import HsiCube, read_cube, write_cube
    from hsifusion.trainer import AdamState

    # cube round trip is bit-exact
    cube = HsiCube(rng.normal(size=(3, 9, 8)).astype(np.float32),
                   value_range=(-2.0, 2.0), wavelengths_nm=[400.0, 500.0, 600.0])
    write_cube(tmp_path / "c.hsic", cube)
    back = read_cube(tmp_path / "c.hsic")
    assert np.array_equal(back.data, cube.data)
    assert back.value_range == cube.value_range

    # checkpoint round trip is bit-exact, moments included
    cfg = hf.DenoiserConfig(bands=2, msi_bands=1, scale=2, base_channels=8,
                            channel_multipliers=(1,), attention_levels=(),
                            time_embed_dim=8, groups=4)
    params = hf.init_params(cfg, rng)
    opt = AdamState.for_params(params)
    for name in params:
        opt.m[name] += rng.normal(size=opt.m[name].shape).astype(np.float32)
    save_checkpoint(tmp_path / "m.ckpt", cfg, params, opt.to_dict(), step=7,
                    schedule={"T": 20, "beta_end": 0.1})
    ck = load_checkpoint(tmp_path / "m.ckpt")
    for name in params:
        assert np.array_equal(ck.params[name].data, params[name].data)
        assert np.array_equal(ck.opt_state["m"][name], opt.m[name])

    # resuming reproduces the uninterrupted run's next-step losses
    cubes = [HsiCube(np.random.default_rng(s).random((2, 8, 8)).astype(np.float32))
             for s in range(3)]
    obs = hf.ObservationModel(block=2, srf=hf.uniform_band_groups(2, 1))
    ds = hf.observed_triples(cubes, obs)
    tcfg = dict(batch_size=2, patch=4, lr_max=1e-3, cycle=50, loss_p=2,
                T=20, beta_end=0.1, seed=9, checkpoint_every=2)
    model = hf.DenoiserConfig(bands=2, msi_bands=1, scale=2, base_channels=8,
                              channel_multipliers=(1,), attention_levels=(),
                              time_embed_dim=8, groups=4)
    hf.train(hf.TrainConfig(iterations=4, **tcfg), model, ds, tmp_path / "full")
    hf.train(hf.TrainConfig(iterations=2, **tcfg), model, ds, tmp_path / "half")
    hf.train(hf.TrainConfig(iterations=4, **tcfg), model, ds, tmp_path / "resumed",
             resume_from=tmp_path / "half" / "checkpoint_final.ckpt")
    full = (tmp_path / "full" / "loss_log.tsv").read_text().splitlines()
    resumed = (tmp_path / "resumed" / "loss_log.tsv").read_text().splitlines()
    assert full[2:] == resumed
