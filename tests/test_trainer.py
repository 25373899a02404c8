import copy
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import hsifusion.denoiser
from hsifusion.checkpoint import load_checkpoint, save_checkpoint
from hsifusion.datacube import HsiCube
from hsifusion.degrade import ObservationModel, spatial_degrade, uniform_band_groups
from hsifusion.denoiser import DenoiserConfig, assemble_condition, init_params, predict_noise
from hsifusion.diffusion import q_sample, simple_loss
from hsifusion.autodiff import Tensor, add, backward
from hsifusion.schedule import linear_schedule
from hsifusion.synthetic import make_toy_dataset, observed_triples
from hsifusion.trainer import (
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    cosine_lr,
    sample_patch,
    train,
    train_step,
)
from oracles import train_step_joint


def tiny_model():
    return DenoiserConfig(bands=2, msi_bands=1, scale=2, base_channels=8,
                          channel_multipliers=(1,), attention_levels=(),
                          time_embed_dim=16, groups=4)


def tiny_dataset(rng, n=3, bands=2, size=8, scale=2):
    cubes = [HsiCube(rng.random((bands, size, size)).astype(np.float32)) for _ in range(n)]
    obs = ObservationModel(block=scale, srf=uniform_band_groups(bands, 1))
    return observed_triples(cubes, obs)


class TestTrainConfig:
    @pytest.mark.parametrize("key,value", [
        ("batch_size", "4"), ("iterations", None), ("patch", "x"), ("patch", 0),
        ("lr_max", "a"), ("lr_max", 0.0), ("lr_max", float("nan")), ("T", 0), ("seed", 1.5),
        ("seed", -1), ("checkpoint_every", -1), ("beta_end", 2.0), ("beta_end", None),
        ("cycle", 0), ("loss_p", 3), ("loss_p", True), ("batch_size", True),
    ])
    def test_bad_value_named(self, key, value):
        with pytest.raises(ValueError, match=f"train config '{key}' must be"):
            TrainConfig.from_dict({key: value})

    def test_numpy_scalars_become_python_numbers(self):
        cfg = TrainConfig(batch_size=np.int64(2), lr_max=np.float32(0.5), beta_end=np.float64(0.1))
        assert type(cfg.batch_size) is int and type(cfg.lr_max) is float
        assert cfg.lr_max == 0.5 and cfg.beta_end == 0.1


class TestCosineLr:
    def test_starts_at_maximum(self):
        assert cosine_lr(0, 1e-4, 50_000) == pytest.approx(1e-4)

    def test_midpoint_is_half(self):
        assert cosine_lr(25_000, 1e-4, 50_000) == pytest.approx(5e-5)

    def test_restarts_each_cycle(self):
        assert cosine_lr(50_000, 1e-4, 50_000) == pytest.approx(1e-4)
        for s in (3, 123, 4999):
            assert cosine_lr(s, 1e-3, 5000) == pytest.approx(cosine_lr(s + 5000, 1e-3, 5000))

    def test_positive_and_bounded(self):
        vals = [cosine_lr(s, 1e-4, 1000) for s in range(1000)]
        assert all(0 < v <= 1e-4 for v in vals)

    def test_python_float_does_not_promote(self):
        # a NumPy float64 rate would make every Adam temporary float64
        lr = cosine_lr(123, 1e-4, 1000)
        assert type(lr) is float
        assert (lr * np.ones(3, dtype=np.float32)).dtype == np.float32


class TestAdam:
    def test_two_step_scalar_trace(self):
        # hand-computed bias-corrected updates for g1 = 0.5, g2 = -0.25
        from hsifusion.autodiff import Tensor

        w = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        params = {"w": w}
        opt = AdamState.for_params(params)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8

        w.grad = np.array([0.5])
        adam_step(params, opt, lr)
        m1 = (1 - b1) * 0.5
        v1 = (1 - b2) * 0.25
        expected1 = 1.0 - lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
        assert w.data[0] == pytest.approx(expected1, abs=1e-10)

        w.grad = np.array([-0.25])
        adam_step(params, opt, lr)
        m2 = b1 * m1 + (1 - b1) * (-0.25)
        v2 = b2 * v1 + (1 - b2) * 0.0625
        mhat = m2 / (1 - b1**2)
        vhat = v2 / (1 - b2**2)
        expected2 = expected1 - lr * mhat / (np.sqrt(vhat) + eps)
        assert w.data[0] == pytest.approx(expected2, abs=1e-10)

    @pytest.mark.parametrize("field,value", [
        ("beta1", -1.0), ("beta1", 1.5), ("beta1", float("nan")), ("beta1", "0.9"),
        ("beta2", 1.0), ("eps", 0.0), ("eps", float("inf")), ("eps", float("nan")),
        ("step", -1), ("step", 2.5), ("step", True),
    ])
    def test_bad_hyperparameter_named(self, field, value):
        with pytest.raises(ValueError, match=f"optimizer '{field}' must be"):
            AdamState(m={}, v={}, **{field: value})

    def test_numpy_scalars_become_python_numbers(self, rng, tmp_path):
        # a float32 beta1 once passed the check and then made save_checkpoint
        # raise "Object of type float32 is not JSON serializable"
        cfg = tiny_model()
        params = init_params(cfg, rng)
        moments = AdamState.for_params(params)
        opt = AdamState(moments.m, moments.v, step=np.int64(3), beta1=np.float32(0.9),
                        beta2=np.float64(0.99), eps=np.float32(1e-6))
        assert type(opt.step) is int
        assert all(type(getattr(opt, k)) is float for k in ("beta1", "beta2", "eps"))
        save_checkpoint(tmp_path / "np.ckpt", cfg, params, opt.to_dict(), step=3)
        loaded = AdamState.from_dict(load_checkpoint(tmp_path / "np.ckpt").opt_state)
        assert (loaded.step, loaded.beta1, loaded.beta2, loaded.eps) == (
            3, float(np.float32(0.9)), 0.99, float(np.float32(1e-6)))

    def test_moments_shaped_like_params(self, rng):
        cfg = tiny_model()
        params = init_params(cfg, rng)
        opt = AdamState.for_params(params)
        for name, p in params.items():
            assert opt.m[name].shape == p.shape
            assert opt.v[name].shape == p.shape

    def test_step_counter_monotone(self, rng):
        from hsifusion.autodiff import Tensor

        params = {"w": Tensor(np.zeros(2), requires_grad=True)}
        opt = AdamState.for_params(params)
        for i in range(1, 4):
            params["w"].grad = np.ones(2, dtype=np.float32)
            adam_step(params, opt, 1e-3)
            assert opt.step == i


class TestSamplePatch:
    def test_low_res_patch_size(self, rng):
        # patch 64 at 32x ratio leaves a 2x2 low-resolution crop
        x0 = rng.random((2, 128, 128)).astype(np.float32)
        obs = ObservationModel(block=32, srf=uniform_band_groups(2, 1))
        y = spatial_degrade(x0, obs)
        z = np.zeros((1, 128, 128), dtype=np.float32)
        xp, yp, zp = sample_patch([(x0, y, z)], 64, 32, rng)
        assert xp.shape == (2, 64, 64)
        assert yp.shape == (2, 2, 2)
        assert zp.shape == (1, 64, 64)

    def test_reproducible_with_seed(self, rng):
        ds = tiny_dataset(rng, n=4, size=16)
        a = sample_patch(ds, 4, 2, np.random.default_rng(5))
        b = sample_patch(ds, 4, 2, np.random.default_rng(5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_redegrading_patch_reproduces_low_res_crop(self, rng):
        # crop alignment makes the block average of the x0 patch equal the
        # y patch exactly
        ds = tiny_dataset(rng, n=2, bands=3, size=16, scale=4)
        obs = ObservationModel(block=4, srf=uniform_band_groups(3, 1))
        for _ in range(10):
            xp, yp, zp = sample_patch(ds, 8, 4, rng)
            np.testing.assert_array_equal(spatial_degrade(xp, obs), yp)

    def test_patch_scale_divisibility(self, rng):
        ds = tiny_dataset(rng)
        with pytest.raises(ValueError, match="divisible"):
            sample_patch(ds, 5, 2, rng)

    def test_image_too_small(self, rng):
        ds = tiny_dataset(rng, size=4)
        with pytest.raises(ValueError, match="smaller"):
            sample_patch(ds, 8, 2, rng)


class TestTrainStep:
    def test_initial_loss_is_noise_power(self, rng):
        # zero-initialized head predicts 0, so the p=2 loss is mean(eps^2) ~ 1
        cfg = tiny_model()
        params = init_params(cfg, rng)
        opt = AdamState.for_params(params)
        sched = linear_schedule(50, 0.1)
        ds = tiny_dataset(rng, n=3, size=8)
        batch = [sample_patch(ds, 4, 2, rng) for _ in range(8)]
        loss = train_step(params, opt, batch, sched, 2, 0.0, rng, cfg)
        n = 8 * 2 * 4 * 4
        assert abs(loss - 1.0) < 4 * np.sqrt(2.0 / n)

    @pytest.mark.parametrize("prediction", ["eps", "x0"])
    def test_zero_output_loss_is_target_magnitude(self, rng, prediction):
        # the zero-initialized head outputs 0, so the p=1 loss is the mean
        # |target|: the clean patch for "x0", the injected noise for "eps"
        cfg = replace(tiny_model(), prediction=prediction)
        params = init_params(cfg, rng)
        sched = linear_schedule(50, 0.1)
        batch = [sample_patch(tiny_dataset(rng), 4, 2, rng) for _ in range(3)]
        draws = copy.deepcopy(rng)
        loss = train_step(params, AdamState.for_params(params), batch, sched, 1, 0.0, rng, cfg)
        magnitudes = {"eps": [], "x0": []}
        for x0, _, _ in batch:
            draws.integers(1, sched.T + 1)
            eps = draws.standard_normal(x0.shape).astype(np.float32)
            magnitudes["eps"].append(np.mean(np.abs(eps)))
            magnitudes["x0"].append(np.mean(np.abs(x0)))
        assert loss == pytest.approx(np.mean(magnitudes[prediction]), rel=1e-5)
        assert np.mean(magnitudes["eps"]) != pytest.approx(np.mean(magnitudes["x0"]), rel=1e-3)

    def test_tape_and_adjoints_stay_float32(self, rng, op_outputs, monkeypatch):
        adjoints = []

        def recording(tensor, g, _accumulate=Tensor.accumulate_grad):
            adjoints.append(g.dtype)
            _accumulate(tensor, g)

        monkeypatch.setattr(Tensor, "accumulate_grad", recording)
        cfg = tiny_model()
        params = init_params(cfg, rng)
        batch = [sample_patch(tiny_dataset(rng), 4, 2, rng) for _ in range(2)]
        train_step(params, AdamState.for_params(params), batch, linear_schedule(50, 0.1),
                   1, 1e-3, rng, cfg)
        assert any(out.requires_grad for out in op_outputs)
        assert {out.dtype for out in op_outputs} == {np.dtype(np.float32)}
        assert adjoints and set(adjoints) == {np.dtype(np.float32)}

    def test_non_finite_loss_raises_with_step(self, rng):
        cfg = tiny_model()
        params = init_params(cfg, rng)
        opt = AdamState.for_params(params)
        sched = linear_schedule(50, 0.1)
        bad = np.full((2, 4, 4), np.nan, dtype=np.float32)
        y = np.zeros((2, 2, 2), dtype=np.float32)
        z = np.zeros((1, 4, 4), dtype=np.float32)
        with pytest.raises(TrainingError, match="step"):
            train_step(params, opt, [(bad, y, z)], sched, 2, 1e-4, rng, cfg)

    @pytest.mark.parametrize("prediction", ["eps", "x0"])
    @pytest.mark.parametrize("loss_p", [1, 2])
    @pytest.mark.parametrize("batch_size", [1, 3, 5])
    def test_matches_joint_graph_bitwise(self, prediction, loss_p, batch_size):
        # backpropagating item by item is the same arithmetic as one backward
        # through the joined batch graph: same draws, same float32 sums
        rng = np.random.default_rng(7)
        cfg = replace(tiny_model(), prediction=prediction)
        ds = tiny_dataset(rng)
        sched = linear_schedule(50, 0.1)
        runs = []
        for step_fn in (train_step, train_step_joint):
            params = init_params(cfg, np.random.default_rng(1))
            opt = AdamState.for_params(params)
            losses = []
            for step in range(3):
                draws = np.random.default_rng([3, step])
                batch = [sample_patch(ds, 4, 2, draws) for _ in range(batch_size)]
                losses.append(step_fn(params, opt, batch, sched, loss_p, 1e-2, draws, cfg))
            runs.append((losses, params, opt))
        (losses, params, opt), (ref_losses, ref_params, ref_opt) = runs
        assert losses == ref_losses
        assert opt.step == ref_opt.step == 3
        for name in params:
            assert params[name].grad is None
            np.testing.assert_array_equal(params[name].data, ref_params[name].data)
            np.testing.assert_array_equal(opt.m[name], ref_opt.m[name])
            np.testing.assert_array_equal(opt.v[name], ref_opt.v[name])

    def test_float64_parts_give_float64_results(self, rng, monkeypatch):
        # float64 weights and data, with no other setting, give what the same
        # draws give through a float64 embedding and float64 batch items
        cfg = tiny_model()
        params = init_params(cfg, rng, dtype=np.float64)
        params["head.conv.w"].data[:] = 0.2 * rng.normal(size=params["head.conv.w"].shape)
        x_in = rng.normal(size=(cfg.in_channels, 8, 8))
        batch = [(rng.random((2, 8, 8)), rng.random((2, 4, 4)), rng.random((1, 8, 8)))
                 for _ in range(2)]
        sched = linear_schedule(20, 0.1)
        before = copy.deepcopy(params)
        pred = predict_noise(params, cfg, x_in, 7).data
        loss = train_step(params, AdamState.for_params(params), batch, sched, 1, 1e-3,
                          np.random.default_rng(5), cfg)

        def embedding(t, dim, T=None):
            angles = t / np.power(10000.0, 2.0 * np.arange(dim // 2) / dim)
            return np.stack([np.sin(angles), np.cos(angles)], axis=1).reshape(-1)

        monkeypatch.setattr(hsifusion.denoiser, "time_embedding", embedding)
        assert pred.dtype == np.float64
        np.testing.assert_array_equal(pred, predict_noise(before, cfg, x_in, 7).data)
        draws, item_losses = np.random.default_rng(5), []
        for x0, y, z in batch:
            t = int(draws.integers(1, sched.T + 1))
            eps = draws.standard_normal(x0.shape)
            cond = assemble_condition(q_sample(x0, t, eps, sched), y, z)
            item_losses.append(simple_loss(eps, predict_noise(before, cfg, cond, t), 1).item())
        assert loss == (item_losses[0] + item_losses[1]) * 0.5

    def test_non_finite_item_mid_batch_leaves_state_untouched(self, rng):
        cfg = tiny_model()
        params = init_params(cfg, rng)
        opt = AdamState.for_params(params)
        sched = linear_schedule(50, 0.1)
        good, other = (sample_patch(tiny_dataset(rng), 4, 2, rng) for _ in range(2))
        bad = (np.full_like(good[0], np.nan),) + good[1:]
        before = copy.deepcopy((params, opt))
        with pytest.raises(TrainingError, match="step 1"):
            train_step(params, opt, [good, bad, other], sched, 2, 1e-2, rng, cfg)
        ref_params, ref_opt = before
        assert opt.step == ref_opt.step == 0
        for name, p in params.items():
            assert p.grad is None
            np.testing.assert_array_equal(p.data, ref_params[name].data)
            np.testing.assert_array_equal(opt.m[name], ref_opt.m[name])
            np.testing.assert_array_equal(opt.v[name], ref_opt.v[name])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gradient_stops_before_the_update(self, rng, tmp_path, monkeypatch,
                                                         value):
        # the loss stays finite while one value of one parameter's gradient
        # is not: Adam would write it into the moments and the weights, and
        # a checkpoint due at that step would save them
        cfg, ds, run = tiny_model(), tiny_dataset(rng), tmp_path / "run"
        train_cfg = TrainConfig(iterations=2, batch_size=2, patch=4, lr_max=1e-3, cycle=100,
                                loss_p=2, T=20, beta_end=0.1, seed=3, checkpoint_every=1)
        train(train_cfg, cfg, ds, run)
        files = {p.name: p.read_bytes() for p in run.iterdir()}
        accumulate, poisoned = Tensor.accumulate_grad, []

        def poison_one_leaf(tensor, g):
            if tensor._backward_fn is None and not poisoned:  # a parameter
                g = np.array(g)
                g.flat[g.size // 2] = value
                poisoned.append(tensor)
            accumulate(tensor, g)

        monkeypatch.setattr(Tensor, "accumulate_grad", poison_one_leaf)
        ckpt = load_checkpoint(run / "checkpoint_final.ckpt")
        params, opt = ckpt.params, AdamState.from_dict(ckpt.opt_state)
        before = copy.deepcopy((params, opt))
        batch = [sample_patch(ds, 4, 2, rng) for _ in range(2)]
        with pytest.raises(TrainingError, match="non-finite gradient norm .* step 3"):
            train_step(params, opt, batch, linear_schedule(20, 0.1), 2, 1e-3, rng, cfg)
        assert len(poisoned) == 1
        ref_params, ref_opt = before
        assert opt.step == ref_opt.step == 2
        for name, p in params.items():
            assert p.grad is None
            np.testing.assert_array_equal(p.data, ref_params[name].data)
            np.testing.assert_array_equal(opt.m[name], ref_opt.m[name])
            np.testing.assert_array_equal(opt.v[name], ref_opt.v[name])

        poisoned.clear()
        with pytest.raises(TrainingError, match="step 3"):
            train(replace(train_cfg, iterations=4), cfg, ds, run,
                  resume_from=run / "checkpoint_final.ckpt")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == files

    def test_single_sample_memorization(self, rng):
        # a sufficient-capacity network must fit one fixed (x0, y, z, t, eps)
        cfg = tiny_model()
        params = init_params(cfg, rng)
        opt = AdamState.for_params(params)
        sched = linear_schedule(50, 0.1)
        (x0, y, z), = tiny_dataset(rng, n=1, size=8)
        t = 25
        eps = rng.standard_normal(x0.shape).astype(np.float32)
        from hsifusion.diffusion import q_sample

        xt = q_sample(x0, t, eps, sched)
        cond = assemble_condition(xt, y, z).data
        loss = None
        for i in range(2000):
            pred = predict_noise(params, cfg, cond, t)
            l = simple_loss(eps, pred, 2)
            loss = l.item()
            if loss < 0.05:
                break
            backward(l)
            adam_step(params, opt, 2e-3)
            for p in params.values():
                p.zero_grad()
        assert loss < 0.05


class TestTapeMemory:
    CFG = DenoiserConfig(bands=4, msi_bands=2, scale=2, base_channels=8,
                         channel_multipliers=(1, 2), attention_levels=(1,),
                         time_embed_dim=16, groups=4)

    def test_backward_frees_the_tape_as_it_goes(self, rng, peak_alloc):
        # what backward allocates beyond the live graph: 4.17 MB on a
        # 8.92 MB graph when every node kept its adjoint and closure until
        # the step returned, 0.16 MB on a 6.85 MB graph when backward
        # consumes the graph
        cfg = self.CFG
        params = init_params(cfg, rng)
        x0 = rng.random((4, 32, 32)).astype(np.float32)
        y = rng.random((4, 16, 16)).astype(np.float32)
        z = rng.random((2, 32, 32)).astype(np.float32)
        with peak_alloc() as mem:
            cond = assemble_condition(x0, y, z)
            loss = add(*(simple_loss(x0, predict_noise(params, cfg, cond, t), 2) for t in (3, 17)))
            live = mem.mark()
            backward(loss)
        extra = mem.peak
        assert all(p.grad is not None for p in params.values())
        assert extra < live / 4, f"backward took {extra / 1e6:.2f} MB over a {live / 1e6:.2f} MB graph"

    def _cond(self, rng):
        return assemble_condition(rng.random((4, 32, 32)).astype(np.float32),
                                  rng.random((4, 16, 16)).astype(np.float32),
                                  rng.random((2, 32, 32)).astype(np.float32))

    def test_network_records_one_node_per_layer(self, rng, op_outputs):
        # 94 nodes when every conv bias and every SiLU after a norm was a
        # node of its own, 65 when each residual block applied the SiLU of
        # the time embedding anew, 60 while the norms and the nearest
        # upsample were nodes in front of their convs
        params = init_params(self.CFG, rng)
        cond = self._cond(rng)
        del op_outputs[:]
        predict_noise(params, self.CFG, cond, 3)
        assert sum(out.requires_grad for out in op_outputs) == 46

    def test_readme_model_records_61_nodes(self, rng, op_outputs):
        # 80 while the norms and the nearest upsamples were nodes of their own
        cfg = DenoiserConfig(bands=31, msi_bands=3, scale=8)
        params = init_params(cfg, rng)
        x = rng.random((cfg.in_channels, 16, 16)).astype(np.float32)
        del op_outputs[:]
        predict_noise(params, cfg, x, 3)
        assert sum(out.requires_grad for out in op_outputs) == 61

    def test_live_graph_of_one_evaluation(self, rng, peak_alloc):
        # 3.36 MB when the conv biases and the SiLUs after the norms each
        # kept a map of their own on the tape, 2.66 MB with one node a layer,
        # 2.26 MB since no normalized or upsampled map is kept
        params = init_params(self.CFG, rng)
        cond = self._cond(rng)
        with peak_alloc() as mem:
            out = predict_noise(params, self.CFG, cond, 3)
            live = mem.mark()
        assert out.requires_grad
        assert live < 2.5e6, f"one evaluation keeps {live / 1e6:.2f} MB of graph"

    def test_train_step_holds_one_item_graph(self, rng, peak_alloc):
        # each item's graph is consumed before the next is built, so a
        # batch of 4 peaks near a batch of 1 (3.83x when all four graphs
        # lived until one joint backward)
        cfg = self.CFG
        params = init_params(cfg, rng)
        opt = AdamState.for_params(params)
        sched = linear_schedule(50, 0.1)
        batch = [(rng.random((4, 32, 32)).astype(np.float32),
                  rng.random((4, 16, 16)).astype(np.float32),
                  rng.random((2, 32, 32)).astype(np.float32)) for _ in range(4)]
        peaks = {}
        for size in (1, 4):
            with peak_alloc() as mem:
                train_step(params, opt, batch[:size], sched, 2, 1e-4, rng, cfg)
            peaks[size] = mem.peak
        assert peaks[4] <= 1.25 * peaks[1], (
            f"B=4 step peaked at {peaks[4] / 1e6:.2f} MB, B=1 at {peaks[1] / 1e6:.2f} MB")


class TestTrainLoop:
    def _cfg(self, iterations, **kw):
        base = dict(iterations=iterations, batch_size=2, patch=4, lr_max=1e-3,
                    cycle=100, loss_p=2, T=20, beta_end=0.1, seed=3,
                    checkpoint_every=2)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_iterations_writes_init_checkpoint(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        path = train(self._cfg(0), tiny_model(), ds, tmp_path / "run")
        ckpt = load_checkpoint(path)
        assert ckpt.step == 0
        assert ckpt.opt_state is not None

    def test_identical_seeds_identical_trajectories(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        train(self._cfg(4), tiny_model(), ds, tmp_path / "a")
        train(self._cfg(4), tiny_model(), ds, tmp_path / "b")
        log_a = (tmp_path / "a" / "loss_log.tsv").read_text()
        log_b = (tmp_path / "b" / "loss_log.tsv").read_text()
        assert log_a == log_b

    def test_resume_matches_uninterrupted_run(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        train(self._cfg(4), tiny_model(), ds, tmp_path / "full")
        train(self._cfg(2), tiny_model(), ds, tmp_path / "half")
        train(self._cfg(4), tiny_model(), ds, tmp_path / "resumed",
              resume_from=tmp_path / "half" / "checkpoint_final.ckpt")
        full = (tmp_path / "full" / "loss_log.tsv").read_text().splitlines()
        resumed = (tmp_path / "resumed" / "loss_log.tsv").read_text().splitlines()
        assert full[2:] == resumed  # steps 3..4 agree line for line

    def test_resume_requires_optimizer_state(self, rng, tmp_path):
        from hsifusion.checkpoint import save_checkpoint

        cfg = tiny_model()
        params = init_params(cfg, rng)
        p = tmp_path / "inference_only.ckpt"
        save_checkpoint(p, cfg, params, opt_state=None, step=5)
        with pytest.raises(ValueError, match="optimizer"):
            train(self._cfg(6), cfg, tiny_dataset(rng), tmp_path / "r", resume_from=p)

    @pytest.mark.parametrize("beta1", [-1.0, 1.5])
    def test_resume_refuses_bad_adam_hyperparameters(self, rng, tmp_path, beta1):
        # outside [0, 1), beta1 drives Adam's moments and the weights non-finite
        ds = tiny_dataset(rng)
        path = train(self._cfg(2), tiny_model(), ds, tmp_path / "a")
        ckpt = load_checkpoint(path)
        save_checkpoint(path, ckpt.config, ckpt.params, {**ckpt.opt_state, "beta1": beta1},
                        ckpt.step, schedule=ckpt.schedule)
        with pytest.raises(ValueError, match="optimizer 'beta1' must be"):
            train(self._cfg(4), tiny_model(), ds, tmp_path / "b", resume_from=path)

    def test_resume_refuses_other_estimator(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        path = train(self._cfg(2), tiny_model(), ds, tmp_path / "eps")
        with pytest.raises(ValueError, match="disagrees"):
            train(self._cfg(4), replace(tiny_model(), prediction="x0"), ds,
                  tmp_path / "x0", resume_from=path)

    def test_resume_cuts_the_log_back_to_the_checkpoint(self, rng, tmp_path):
        # the resumed steps 3 and 4 were appended after the first run's 3 and 4
        ds = tiny_dataset(rng)
        train(self._cfg(4), tiny_model(), ds, tmp_path / "run")
        log = tmp_path / "run" / "loss_log.tsv"
        first = log.read_text()
        train(self._cfg(4), tiny_model(), ds, tmp_path / "run",
              resume_from=tmp_path / "run" / "checkpoint_0000002.ckpt")
        steps = [line.split("\t")[0] for line in log.read_text().splitlines()]
        assert steps == ["1", "2", "3", "4"]
        assert log.read_text() == first

    def test_resume_drops_a_torn_last_line(self, rng, tmp_path):
        # a torn "1" was read as step 1 and kept, and step 3 was logged as "13"
        ds = tiny_dataset(rng)
        train(self._cfg(4), tiny_model(), ds, tmp_path / "run")
        log = tmp_path / "run" / "loss_log.tsv"
        first = log.read_text()
        log.write_text("".join(first.splitlines(keepends=True)[:2]) + "1")
        train(self._cfg(4), tiny_model(), ds, tmp_path / "run",
              resume_from=tmp_path / "run" / "checkpoint_0000002.ckpt")
        assert log.read_text() == first

    def test_log_holds_every_line_up_to_a_checkpoint_after_a_kill(self, tmp_path):
        # the log was still buffered: a process killed after checkpoints 2
        # and 4 left an empty loss_log.tsv beside them
        train(self._cfg(4), tiny_model(), tiny_dataset(np.random.default_rng(7)), tmp_path / "full")
        script = f"""if True:
            import os
            import numpy as np
            import hsifusion.trainer as trainer
            from test_trainer import TestTrainLoop, tiny_dataset, tiny_model

            save = trainer.save_checkpoint
            def save_then_die(path, *args, **kw):
                save(path, *args, **kw)
                if path.endswith("checkpoint_0000004.ckpt"):
                    os._exit(3)
            trainer.save_checkpoint = save_then_die
            trainer.train(TestTrainLoop()._cfg(8), tiny_model(),
                          tiny_dataset(np.random.default_rng(7)), {str(tmp_path / "run")!r})
        """
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(hsifusion.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here])}
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120)
        assert done.returncode == 3
        assert (tmp_path / "run" / "checkpoint_0000004.ckpt").exists()
        assert ((tmp_path / "run" / "loss_log.tsv").read_text()
                == (tmp_path / "full" / "loss_log.tsv").read_text())

    @pytest.mark.parametrize("T,beta_end", [(80, 0.02), (80, 0.1), (50, 0.02)])
    def test_resume_refuses_other_schedule(self, rng, tmp_path, T, beta_end):
        ds = tiny_dataset(rng)
        path = train(self._cfg(2, T=50), tiny_model(), ds, tmp_path / "a")
        with pytest.raises(ValueError, match="schedule"):
            train(self._cfg(4, T=T, beta_end=beta_end), tiny_model(), ds, tmp_path / "b",
                  resume_from=path)
        assert not (tmp_path / "b").exists()

    def test_loss_log_format(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        train(self._cfg(3), tiny_model(), ds, tmp_path / "fmt")
        lines = (tmp_path / "fmt" / "loss_log.tsv").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            step, loss, lr = line.split("\t")
            int(step)
            float(loss)
            float(lr)

    @pytest.mark.parametrize("log_every", [0, -1, "2", 2.0, True, None])
    def test_bad_log_every_rejected_before_work(self, rng, tmp_path, log_every):
        with pytest.raises(ValueError, match="log_every"):
            train(self._cfg(2), tiny_model(), tiny_dataset(rng), tmp_path / "x",
                  log_every=log_every)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("bad,match", [
        ("scale", "triple 1: z size"), ("bands", "triple 1: y has 3 bands"),
        ("small_z", "triple 1: x0 has shape"), ("pair", "triple 1: not enough values"),
    ])
    def test_dataset_that_does_not_fit_refused_before_writing(self, rng, tmp_path, bad, match):
        # a scale-2 pair under a scale-4 model trained to a checkpoint, and a z
        # smaller than x0 failed mid-run with a message about x_t
        model = replace(tiny_model(), scale=4)
        ds = tiny_dataset(rng, scale=4)
        x0, y, z = ds[0]
        ds.insert(1, {"scale": tiny_dataset(rng, scale=2)[0],
                      "bands": (x0, np.concatenate([y, y[:1]]), z),
                      "small_z": (x0, y[:, :1, :1], z[:, :4, :4]), "pair": (y, z)}[bad])
        with pytest.raises(ValueError, match=match):
            train(self._cfg(2), model, ds, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_image_smaller_than_patch_refused_before_writing(self, rng, tmp_path):
        # the 4x4 triple used to fail at the first step that drew it, after
        # the log had been emptied
        ds = tiny_dataset(rng)
        train(self._cfg(1), tiny_model(), ds, tmp_path / "run")
        log = tmp_path / "run" / "loss_log.tsv"
        before = log.read_text()
        ds.insert(1, tiny_dataset(rng, size=4)[0])
        with pytest.raises(ValueError, match="triple 1: image 4x4 smaller than patch 8"):
            train(self._cfg(1, patch=8), tiny_model(), ds, tmp_path / "run")
        assert log.read_text() == before

    def test_patch_divisibility_validated(self, rng, tmp_path):
        with pytest.raises(ValueError, match="divisible"):
            train(self._cfg(1, patch=5), tiny_model(), tiny_dataset(rng), tmp_path / "x")

    def test_training_reduces_loss_on_toy_data(self, tmp_path):
        # median of the last 10% of steps below the first 10%
        cubes = make_toy_dataset(3, seed=2, bands=2, size=16, coarse=4)
        obs = ObservationModel(block=2, srf=uniform_band_groups(2, 1))
        ds = observed_triples(cubes, obs)
        cfg = self._cfg(60, batch_size=2, patch=8, lr_max=2e-3, checkpoint_every=0)
        model = tiny_model()
        train(cfg, model, ds, tmp_path / "prog")
        rows = [l.split("\t") for l in (tmp_path / "prog" / "loss_log.tsv").read_text().splitlines()]
        losses = [float(r[1]) for r in rows]
        head = np.median(losses[:6])
        tail = np.median(losses[-6:])
        assert tail < head
