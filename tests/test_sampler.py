import sys
from dataclasses import replace

import numpy as np
import pytest

import hsifusion.sampler as sampler_mod
from hsifusion.autodiff import Tensor
from hsifusion.datacube import HsiCube
from hsifusion.degrade import ObservationModel, simulate_observations, uniform_band_groups
from hsifusion.denoiser import DenoiserConfig, assemble_condition, init_params
from hsifusion.diffusion import posterior_mean_from_eps, q_sample
from hsifusion.sampler import TauSchedule, ddim_sigma, ddim_step, fuse, select_tau
from hsifusion.schedule import linear_schedule, posterior_coeffs
from oracles import fuse_tile_major


@pytest.fixture(scope="module")
def sched():
    return linear_schedule(50, 0.3)


class TestSelectTau:
    def test_single_step(self):
        assert select_tau(2000, 1).steps == (2000,)

    def test_two_steps(self):
        assert select_tau(2000, 2).steps == (1000, 2000)

    def test_full_sequence(self):
        assert select_tau(10, 10).steps == tuple(range(1, 11))

    def test_always_ends_at_T(self):
        for d in (1, 3, 7, 23):
            assert select_tau(100, d).steps[-1] == 100

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            select_tau(10, 0)
        with pytest.raises(ValueError):
            select_tau(10, 11)

    @pytest.mark.parametrize("steps", [("5", 10), (2.7, 10), (True, 10), (np.float64(3.0), 10),
                                       (5, None)])
    def test_non_integer_steps_refused(self, steps):
        # they were coerced: "5" ran step 5, 2.7 ran step 2 and True step 1
        with pytest.raises(ValueError, match="tau schedule steps must be integers"):
            TauSchedule(steps)

    def test_tau_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            TauSchedule((5, 5, 10))
        with pytest.raises(ValueError, match="non-empty"):
            TauSchedule(())
        with pytest.raises(ValueError, match="below 1"):
            TauSchedule((0, 10))


class TestDdimSigma:
    def test_zero_mode(self, sched):
        assert ddim_sigma(sched, 10, 5, "zero") == 0.0

    def test_posterior_matches_beta_tilde_for_consecutive(self, sched):
        for t in range(2, 51, 7):
            var = posterior_coeffs(sched, t)[2]
            assert ddim_sigma(sched, t, t - 1, "posterior") == pytest.approx(
                np.sqrt(var), rel=1e-10
            )

    def test_final_transition_noise_free(self, sched):
        assert ddim_sigma(sched, 3, 0, "posterior") == 0.0

    def test_unknown_mode(self, sched):
        with pytest.raises(ValueError, match="sigma mode"):
            ddim_sigma(sched, 5, 4, "half")


class TestDdimStep:
    def test_final_step_returns_x0_estimate(self, sched, rng):
        t = 20
        xt = rng.normal(size=(2, 4, 4))
        eps_hat = rng.normal(size=(2, 4, 4))
        out = ddim_step(xt, eps_hat, t, 0, 0.0, sched)
        ab = sched.alpha_bars[t]
        expected = (xt - np.sqrt(1 - ab) * eps_hat) / np.sqrt(ab)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_true_noise_stays_on_trajectory(self, sched, rng):
        # with the generating noise as eps_hat and sigma = 0 the update lands
        # exactly on the closed-form point for t_prev
        x0 = rng.normal(size=(2, 5, 5))
        eps = rng.standard_normal(x0.shape)
        for t, t_prev in ((50, 37), (37, 12), (12, 1), (12, 0)):
            xt = q_sample(x0, t, eps, sched)
            out = ddim_step(xt, eps, t, t_prev, 0.0, sched)
            if t_prev == 0:
                expected = x0
            else:
                expected = q_sample(x0, t_prev, eps, sched)
            np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_matches_ancestral_update_with_shared_noise(self, sched, rng):
        # consecutive steps, sigma = sqrt(beta~_t), same noise draw: DDIM and
        # the posterior-mean ancestral rule coincide
        x0 = rng.normal(size=(3, 4, 4))
        for t in (2, 17, 33, 50):
            eps = rng.standard_normal(x0.shape)
            xt = q_sample(x0, t, eps, sched)
            eps_hat = eps + 0.1 * rng.standard_normal(x0.shape)
            zeta = rng.standard_normal(x0.shape)
            var = posterior_coeffs(sched, t)[2]
            ancestral = posterior_mean_from_eps(xt, eps_hat, t, sched) + np.sqrt(var) * zeta
            ddim = ddim_step(xt, eps_hat, t, t - 1, np.sqrt(var), sched, noise=zeta)
            np.testing.assert_allclose(ddim, ancestral, atol=1e-5)

    def test_sigma_bound_enforced(self, sched, rng):
        x = rng.normal(size=(1, 2, 2))
        with pytest.raises(ValueError, match="sigma"):
            ddim_step(x, x, 10, 9, 5.0, sched)

    def test_ordering_enforced(self, sched, rng):
        x = rng.normal(size=(1, 2, 2))
        with pytest.raises(ValueError):
            ddim_step(x, x, 5, 5, 0.0, sched)
        with pytest.raises(ValueError):
            ddim_step(x, x, 51, 50, 0.0, sched)

    def test_stochastic_step_needs_noise(self, sched, rng):
        x = rng.normal(size=(1, 2, 2))
        with pytest.raises(ValueError, match="noise"):
            ddim_step(x, x, 10, 9, 0.01, sched)

    @pytest.mark.parametrize("eps_shape,noise_shape", [
        ((5, 6), (3, 5, 6)), ((3, 5, 6), (5, 6)), ((3, 5, 6), (6,)), ((3, 5, 6), (1, 5, 6)),
    ])
    def test_shape_mismatch_rejected(self, sched, rng, eps_shape, noise_shape):
        # a (H, W) or (W,) array would broadcast across the bands unnoticed
        xt = rng.normal(size=(3, 5, 6))
        bad = "eps_hat" if eps_shape != xt.shape else "noise"
        with pytest.raises(ValueError, match=f"{bad}: shape mismatch"):
            ddim_step(xt, rng.normal(size=eps_shape), 10, 9, 0.01, sched,
                      noise=rng.normal(size=noise_shape))

    def test_float32_step_computes_in_float32(self, sched, rng):
        # the schedule is float64, but its coefficients must not promote the
        # arrays: the result is the update evaluated in float32, bit for bit
        xt, eps_hat, noise = (rng.normal(size=(3, 16, 16)).astype(np.float32)
                              for _ in range(3))
        t, t_prev, sigma = 30, 12, 0.05
        ab_t, ab_prev = sched.alpha_bars[t], sched.alpha_bars[t_prev]
        c = lambda v: np.float32(np.sqrt(v))
        x0_hat = (xt - c(1 - ab_t) * eps_hat) / c(ab_t)
        expected = (c(ab_prev) * x0_hat + c(1 - ab_prev - sigma**2) * eps_hat
                    + np.float32(sigma) * noise)
        out = ddim_step(xt, eps_hat, t, t_prev, sigma, sched, noise=noise)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, expected)


@pytest.fixture(scope="module")
def fusion_setup():
    rng = np.random.default_rng(7)
    cfg = DenoiserConfig(bands=4, msi_bands=2, scale=4, base_channels=8,
                         channel_multipliers=(1, 2), attention_levels=(),
                         time_embed_dim=16, groups=4)
    params = init_params(cfg, rng)
    params["head.conv.w"].data[:] = 0.05 * rng.normal(
        size=params["head.conv.w"].shape
    ).astype(np.float32)
    sched = linear_schedule(40, 0.2)
    cube = HsiCube(rng.random((4, 16, 16)).astype(np.float32))
    obs = ObservationModel(block=4, srf=uniform_band_groups(4, 2))
    y, z = simulate_observations(cube, obs)
    return cfg, params, sched, y, z


def _tiled_fuse_peak(rng, peak_alloc, d: int) -> float:
    """tracemalloc peak, in output cubes, of a tiled posterior fuse of a
    31-band 256x256 scene in 64-pixel tiles."""
    cfg = DenoiserConfig(bands=31, msi_bands=3, scale=8, base_channels=8,
                         channel_multipliers=(1, 2), attention_levels=(),
                         time_embed_dim=16, groups=4)
    params = init_params(cfg, rng)
    y = rng.random((31, 32, 32)).astype(np.float32)
    z = rng.random((3, 256, 256)).astype(np.float32)
    with peak_alloc() as mem:
        out = fuse(params, cfg, linear_schedule(20, 0.1), y, z, select_tau(20, d),
                   sigma_mode="posterior", rng_seed=1, tile=64, tile_stride=48)
    return mem.peak / out.data.nbytes


def _whole_fuse_peak(fusion_setup, peak_alloc, sigma_mode="zero", d=2) -> float:
    """tracemalloc peak, in output cubes, of an untaped whole-scene fuse of
    the ``fusion_setup`` model."""
    cfg, params, sched, y, z = fusion_setup
    with peak_alloc() as mem:
        out = fuse(params, cfg, sched, y, z, select_tau(40, d), sigma_mode=sigma_mode,
                   rng_seed=1)
    return mem.peak / out.data.nbytes


class TestFuse:
    def test_shape_and_range(self, fusion_setup):
        cfg, params, sched, y, z = fusion_setup
        out = fuse(params, cfg, sched, y, z, select_tau(40, 3), rng_seed=1)
        assert out.data.shape == (4, 16, 16)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_deterministic_for_fixed_seed(self, fusion_setup):
        cfg, params, sched, y, z = fusion_setup
        a = fuse(params, cfg, sched, y, z, select_tau(40, 2), rng_seed=9).data
        b = fuse(params, cfg, sched, y, z, select_tau(40, 2), rng_seed=9).data
        assert np.array_equal(a, b)
        c = fuse(params, cfg, sched, y, z, select_tau(40, 2), rng_seed=10).data
        assert not np.array_equal(a, c)

    def test_posterior_sigma_mode_runs(self, fusion_setup):
        cfg, params, sched, y, z = fusion_setup
        out = fuse(params, cfg, sched, y, z, select_tau(40, 4),
                   sigma_mode="posterior", rng_seed=2)
        assert np.all(np.isfinite(out.data))

    def test_band_mismatch_rejected(self, fusion_setup, rng):
        cfg, params, sched, y, z = fusion_setup
        bad_y = HsiCube(rng.random((3, 4, 4)).astype(np.float32))
        with pytest.raises(ValueError, match="bands"):
            fuse(params, cfg, sched, bad_y, z, select_tau(40, 1))

    def test_scale_mismatch_rejected(self, fusion_setup, rng):
        cfg, params, sched, y, z = fusion_setup
        bad_z = HsiCube(rng.random((2, 12, 12)).astype(np.float32))
        with pytest.raises(ValueError, match="scale|size"):
            fuse(params, cfg, sched, y, bad_z, select_tau(40, 1))

    def test_tau_must_end_at_T(self, fusion_setup):
        cfg, params, sched, y, z = fusion_setup
        with pytest.raises(ValueError, match="tau"):
            fuse(params, cfg, sched, y, z, TauSchedule((5, 20)))

    def test_tiled_fusion_matches_untiled_closely(self, fusion_setup):
        # same global noise field; overlapping feathered tiles should agree
        # with the whole-image pass except for mild border effects
        cfg, params, sched, y, z = fusion_setup
        tau = select_tau(40, 2)
        whole = fuse(params, cfg, sched, y, z, tau, rng_seed=5).data
        tiled = fuse(params, cfg, sched, y, z, tau, rng_seed=5,
                     tile=8, tile_stride=4).data
        assert tiled.shape == whole.shape
        assert np.all(np.isfinite(tiled))
        assert np.mean(np.abs(tiled - whole)) < 0.2

    def test_tile_off_the_side_multiple_rejected(self, fusion_setup):
        cfg, params, sched, y, z = fusion_setup
        with pytest.raises(ValueError, match=r"tile 7 not divisible by 2\^\(levels-1\)"):
            fuse(params, cfg, sched, y, z, select_tau(40, 1), tile=7, tile_stride=4)

    @pytest.mark.parametrize("tile,stride", [(8, 12), (8, 0), (-8, 4)])
    def test_bad_tile_stride_rejected(self, fusion_setup, tile, stride):
        # a stride beyond the tile would leave unvisited, all-zero stripes
        cfg, params, sched, y, z = fusion_setup
        with pytest.raises(ValueError, match=f"tile={tile}, tile_stride={stride}"):
            fuse(params, cfg, sched, y, z, select_tau(40, 1), tile=tile, tile_stride=stride)

    @pytest.mark.parametrize("name,value", [
        ("tile_stride", 4.0),  # was a TypeError from range
        ("rng_seed", 1.5),  # was numpy's SeedSequence TypeError
        ("rng_seed", "a"),
        ("tile", True),  # was taken as a tile of 1
    ])
    def test_non_integer_arguments_named(self, fusion_setup, name, value):
        cfg, params, sched, y, z = fusion_setup
        kwargs = {"tile": 8, "tile_stride": 4, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            fuse(params, cfg, sched, y, z, select_tau(40, 1), **kwargs)

    @pytest.mark.parametrize("tile", [None, 8])
    def test_inference_records_no_tape(self, fusion_setup, op_outputs, tile):
        cfg, params, sched, y, z = fusion_setup
        before = {n: p.data for n, p in params.items()}
        fuse(params, cfg, sched, y, z, select_tau(40, 2), sigma_mode="posterior",
             tile=tile, tile_stride=4)
        assert op_outputs and not any(out.requires_grad for out in op_outputs)
        for n, p in params.items():
            assert p.requires_grad and p.grad is None and p.data is before[n]

    @pytest.mark.parametrize("tile", [None, 8])
    def test_network_runs_in_float32(self, fusion_setup, op_outputs, tile):
        # every layer output of every network evaluation keeps the float32 of
        # the parameters and the observations
        cfg, params, sched, y, z = fusion_setup
        fuse(params, cfg, sched, y, z, select_tau(40, 2), sigma_mode="posterior",
             tile=tile, tile_stride=4)
        assert op_outputs and {o.dtype for o in op_outputs} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("name", ["y", "z"])
    def test_non_finite_input_rejected(self, fusion_setup, name):
        cfg, params, sched, y, z = fusion_setup
        cubes = {"y": y.data.copy(), "z": z.data.copy()}
        cubes[name][0, 1, 2] = np.nan
        with pytest.raises(ValueError, match=f"^{name} contains non-finite"):
            fuse(params, cfg, sched, cubes["y"], cubes["z"], select_tau(40, 1))

    def test_non_finite_network_output_names_step(self, fusion_setup):
        cfg, params, sched, y, z = fusion_setup
        params = {**params, "head.conv.b": Tensor(np.full(4, np.nan, np.float32))}
        with pytest.raises(ValueError, match="t=40"):
            fuse(params, cfg, sched, y, z, select_tau(40, 3))

    def test_wall_time_decreases_with_fewer_steps(self, fusion_setup):
        import time

        cfg, params, sched, y, z = fusion_setup
        times = []
        for d in (8, 1):
            t0 = time.perf_counter()
            fuse(params, cfg, sched, y, z, select_tau(40, d), rng_seed=0)
            times.append(time.perf_counter() - t0)
        assert times[1] < times[0]

    def test_tiled_fusion_blends_in_place(self, rng, peak_alloc):
        # 8.1 output cubes when the blend divided, clipped and cast into new
        # float64 and float32 scenes; 6.1 when it does all three in place;
        # 4.5 since each step's noise field is drawn when the step runs
        cubes = _tiled_fuse_peak(rng, peak_alloc, d=2)
        assert cubes <= 5.0, f"tiled fuse peaked at {cubes:.2f} output cubes"

    def test_whole_fusion_peak_holds_one_map_per_layer(self, fusion_setup, peak_alloc):
        # 33.4 output cubes when each conv bias and each SiLU after a norm
        # wrote a map of its own; 29.4 with one primitive per layer (as the
        # first fuse of a process, 28.3 after one); 28.0 (26.6) since the
        # upsampled y is built per step and freed before the network runs
        cubes = _whole_fuse_peak(fusion_setup, peak_alloc)
        assert cubes <= 29.0, f"whole fuse peaked at {cubes:.2f} output cubes"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 keeps a call's "
                        "arguments on the caller's stack until the call returns")
    def test_whole_fusion_frees_network_input_after_stem(self, fusion_setup, peak_alloc):
        # 26.3 output cubes after a warm-up fuse while the network input (2.5
        # cubes) lived through the whole evaluation; 23.7 since it is freed
        # once the stem conv has read it
        _whole_fuse_peak(fusion_setup, peak_alloc, d=5)
        cubes = _whole_fuse_peak(fusion_setup, peak_alloc, d=5)
        assert cubes <= 25.0, f"whole fuse peaked at {cubes:.2f} output cubes"

    def test_tiled_fusion_memory_does_not_grow_with_steps(self, rng, peak_alloc):
        # 6.1 cubes at d=2 and 9.1 at d=5 when every field was drawn up front
        two, five = (_tiled_fuse_peak(rng, peak_alloc, d) for d in (2, 5))
        assert five - two <= 0.25, f"peak {two:.2f} cubes at d=2, {five:.2f} at d=5"

    @pytest.mark.parametrize("d", [2, 5])
    def test_tiled_fusion_holds_no_scene_sized_noise_or_blend(self, rng, peak_alloc, d):
        # 4.47 output cubes while each step drew a whole-scene noise field
        # and the blend accumulated a float64 scene; 3.47 band by band, with
        # a whole-scene upsampled condition; 2.71 since each window builds its
        # condition from its own crop
        cubes = _tiled_fuse_peak(rng, peak_alloc, d)
        assert cubes <= 3.0, f"tiled fuse peaked at {cubes:.2f} output cubes at d={d}"

    def test_whole_posterior_fusion_draws_no_noise_cube(self, fusion_setup, peak_alloc):
        # the posterior noise is added a band at a time; a whole-scene field
        # cost 1.00 output cube more than the noise-free fuse. The first
        # fuse of a process peaks about 1.7 cubes higher, so one runs first
        _whole_fuse_peak(fusion_setup, peak_alloc, "posterior", d=5)
        zero, posterior = (_whole_fuse_peak(fusion_setup, peak_alloc, mode, d=5)
                           for mode in ("zero", "posterior"))
        assert posterior - zero <= 0.25, (
            f"posterior fuse peaked at {posterior:.2f} output cubes, zero mode at {zero:.2f}")


class TestStepMajorFusion:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 7), (31, 16, 24)])
    def test_band_wise_draw_matches_one_whole_draw(self, shape):
        # the same values as one float64 draw cast to float32, and the
        # generator is left in the same state for the next field
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = np.zeros(shape, dtype=np.float32)
        sampler_mod._add_noise(got_rng, shape, [got], [np.s_[:, :]], 1.0)
        want = want_rng.normal(size=shape).astype(np.float32)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert got_rng.normal() == want_rng.normal()

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("prediction", ["eps", "x0"])
    @pytest.mark.parametrize("sigma_mode", ["zero", "posterior"])
    @pytest.mark.parametrize("tile", [None, 8])
    def test_matches_tile_major_bitwise(self, fusion_setup, tile, sigma_mode, prediction, d):
        cfg, params, sched, y, z = fusion_setup
        cfg = replace(cfg, prediction=prediction)
        kw = dict(sigma_mode=sigma_mode, rng_seed=3, tile=tile, tile_stride=4)
        got = fuse(params, cfg, sched, y, z, select_tau(40, d), **kw).data
        want = fuse_tile_major(params, cfg, sched, y, z, select_tau(40, d), **kw)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma_mode", ["zero", "posterior"])
    @pytest.mark.parametrize("tile", [16, 32])
    def test_one_covering_tile_is_untiled_bitwise(self, fusion_setup, tile, sigma_mode):
        # a tile at least the scene's size is one window, as untiled fusion is
        cfg, params, sched, y, z = fusion_setup
        kw = dict(sigma_mode=sigma_mode, rng_seed=8)
        whole = fuse(params, cfg, sched, y, z, select_tau(40, 3), **kw).data
        tiled = fuse(params, cfg, sched, y, z, select_tau(40, 3), tile=tile, tile_stride=8,
                     **kw).data
        assert tiled.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("tile,stride", [(16, 16), (32, 8), (8, 8), (8, 1)])
    def test_tilings_match_tile_major_bitwise(self, fusion_setup, tile, stride):
        # one tile the size of the scene, one larger, a partition, a dense overlap
        cfg, params, sched, y, z = fusion_setup
        kw = dict(sigma_mode="posterior", rng_seed=6, tile=tile, tile_stride=stride)
        got = fuse(params, cfg, sched, y, z, select_tau(40, 2), **kw).data
        want = fuse_tile_major(params, cfg, sched, y, z, select_tau(40, 2), **kw)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [(16, 40), (40, 16)])
    def test_windows_cut_by_the_scene_edge_match_tile_major_bitwise(self, fusion_setup, size):
        # 24-pixel tiles on a 16-pixel side are cut to 16 by the scene edge,
        # and three of them are blended along the other side: each window's
        # condition is a lopsided window of the upsampled y
        cfg, params, sched, _, _ = fusion_setup
        cube = HsiCube(np.random.default_rng(12).random((4, *size)).astype(np.float32))
        y, z = simulate_observations(cube, ObservationModel(block=4,
                                                            srf=uniform_band_groups(4, 2)))
        kw = dict(sigma_mode="posterior", rng_seed=2, tile=24, tile_stride=8)
        got = fuse(params, cfg, sched, y, z, select_tau(40, 2), **kw).data
        want = fuse_tile_major(params, cfg, sched, y, z, select_tau(40, 2), **kw)
        assert got.shape == (4, *size)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("tile,windows", [(None, 1), (8, 9)])
    def test_condition_built_once_per_window_and_step(self, fusion_setup, monkeypatch, tile,
                                                      windows, d):
        # fusion builds its network input with training's assemble_condition
        cfg, params, sched, y, z = fusion_setup
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return assemble_condition(*args, **kwargs)

        monkeypatch.setattr(sampler_mod, "assemble_condition", counted)
        fuse(params, cfg, sched, y, z, select_tau(40, d), sigma_mode="posterior",
             tile=tile, tile_stride=4)
        assert len(calls) == windows * d

    @pytest.mark.parametrize("tile", [None, 8])
    def test_float64_observations_fuse_as_their_float32_casts(self, fusion_setup, tile):
        # each window casts its own crop of z; the network still sees float32
        cfg, params, sched, y, z = fusion_setup
        kw = dict(sigma_mode="posterior", rng_seed=5, tile=tile, tile_stride=4)
        wide = fuse(params, cfg, sched, y.data.astype(np.float64), z.data.astype(np.float64),
                    select_tau(40, 2), **kw).data
        narrow = fuse(params, cfg, sched, y.data.astype(np.float32),
                      z.data.astype(np.float32), select_tau(40, 2), **kw).data
        assert wide.tobytes() == narrow.tobytes()


class TestCleanCubeEstimator:
    @pytest.mark.parametrize("tile", [None, 8])
    def test_x0_output_drives_the_eps_path_through_the_implied_noise(
        self, fusion_setup, monkeypatch, tile
    ):
        # an x0 network must fuse exactly like an eps network whose output is
        # eps_hat = (x_t - sqrt(ab_t) * x0_hat) / sqrt(1 - ab_t), computed
        # from the same raw network output
        cfg, params, sched, y, z = fusion_setup
        tau = select_tau(40, 3)
        kw = dict(sigma_mode="posterior", rng_seed=4, tile=tile, tile_stride=4)
        got = fuse(params, replace(cfg, prediction="x0"), sched, y, z, tau, **kw).data

        network = sampler_mod.predict_noise

        def implied_noise(params, cfg, cond, t):
            x0_hat = network(params, cfg, cond, t).data
            xt = cond.data[:cfg.bands]
            ab = sched.alpha_bars[t]
            return Tensor((xt - np.sqrt(ab) * x0_hat) / np.sqrt(1.0 - ab))

        monkeypatch.setattr(sampler_mod, "predict_noise", implied_noise)
        want = fuse(params, cfg, sched, y, z, tau, **kw).data
        np.testing.assert_allclose(got, want, atol=1e-5)
        # the output is roughly zero-centred: about half the voxels escape the
        # [0, 1] clamp, enough for the comparison to mean something
        assert np.mean((got > 0.0) & (got < 1.0)) > 0.3
