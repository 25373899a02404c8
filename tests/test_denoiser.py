import hashlib
import re

import numpy as np
import pytest

from hsifusion.autodiff import Tensor, backward
from hsifusion.denoiser import (
    DenoiserConfig,
    assemble_condition,
    init_params,
    param_count,
    predict_noise,
    time_embedding,
)
from hsifusion.diffusion import simple_loss
from hsifusion.sampler import _tile_starts

from oracles import numerical_grad


def tiny_config(**overrides):
    base = dict(bands=2, msi_bands=1, scale=4, base_channels=8,
                channel_multipliers=(1, 2), attention_levels=(1,),
                time_embed_dim=8, groups=4)
    base.update(overrides)
    return DenoiserConfig(**base)


class TestTimeEmbedding:
    def test_probe_value_zero(self):
        e = time_embedding(0, 8)
        np.testing.assert_array_equal(e[0::2], 0.0)
        np.testing.assert_array_equal(e[1::2], 1.0)

    def test_neighbouring_steps_differ(self):
        for t in range(0, 200, 7):
            assert np.linalg.norm(time_embedding(t, 16) - time_embedding(t + 1, 16)) > 0

    def test_components_bounded(self):
        for t in (1, 50, 2000):
            e = time_embedding(t, 32)
            assert np.all(e >= -1.0) and np.all(e <= 1.0)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            time_embedding(3, 7)

    def test_range_check(self):
        with pytest.raises(ValueError):
            time_embedding(-1, 8)
        with pytest.raises(ValueError):
            time_embedding(11, 8, T=10)


class TestAssembleCondition:
    def test_standard_full_size_shapes(self, rng):
        # 31-band cube with a 3-band companion at 32x ratio on 64x64 patches
        xt = rng.normal(size=(31, 64, 64)).astype(np.float32)
        y = rng.normal(size=(31, 2, 2)).astype(np.float32)
        z = rng.normal(size=(3, 64, 64)).astype(np.float32)
        cond = assemble_condition(xt, y, z)
        assert cond.shape == (65, 64, 64)

    def test_constant_y_upsample_slice(self, rng):
        xt = rng.normal(size=(2, 8, 8)).astype(np.float32)
        y = np.full((2, 2, 2), 0.37, dtype=np.float32)
        z = rng.normal(size=(1, 8, 8)).astype(np.float32)
        cond = assemble_condition(xt, y, z)
        np.testing.assert_allclose(cond.data[3:], 0.37, atol=1e-6)

    def test_split_recovers_inputs_bit_exactly(self, rng):
        xt = rng.normal(size=(2, 8, 8)).astype(np.float32)
        y = rng.normal(size=(2, 2, 2)).astype(np.float32)
        z = rng.normal(size=(1, 8, 8)).astype(np.float32)
        cond = assemble_condition(xt, y, z)
        np.testing.assert_array_equal(cond.data[:2], xt)
        np.testing.assert_array_equal(cond.data[2:3], z)

    def test_band_and_divisibility_errors(self, rng):
        xt = rng.normal(size=(2, 8, 8))
        z = rng.normal(size=(1, 8, 8))
        with pytest.raises(ValueError, match="band"):
            assemble_condition(xt, rng.normal(size=(3, 2, 2)), z)
        with pytest.raises(ValueError, match="divide"):
            assemble_condition(xt, rng.normal(size=(2, 3, 3)), z)
        with pytest.raises(ValueError, match="spatial"):
            assemble_condition(xt, rng.normal(size=(2, 2, 2)), rng.normal(size=(1, 6, 6)))

    @pytest.mark.parametrize("size,tile,stride", [((16, 16), 8, 4), ((16, 40), 24, 8),
                                                  ((40, 16), 24, 8)])
    def test_window_is_the_crop_of_the_whole_condition(self, rng, size, tile, stride):
        # every window of the fusion tests' tilings at scale 4: edge windows,
        # and 24-pixel tiles cut to 16 by the scene edge
        H, W = size
        xt = rng.normal(size=(4, H, W)).astype(np.float32)
        y = rng.random((4, H // 4, W // 4)).astype(np.float32)
        z = rng.random((2, H, W)).astype(np.float32)
        whole = assemble_condition(xt, y, z).data
        windows = [np.s_[r:min(r + tile, H), c:min(c + tile, W)]
                   for r in _tile_starts(H, tile, stride) for c in _tile_starts(W, tile, stride)]
        assert len(windows) == {(16, 16): 9, (16, 40): 3, (40, 16): 3}[size]
        for rows, cols in windows:
            got = assemble_condition(xt[:, rows, cols], y, z, window=(rows, cols)).data
            assert got.dtype == np.float32
            assert got.tobytes() == np.ascontiguousarray(whole[:, rows, cols]).tobytes()

    def test_observations_take_the_width_of_x_t(self, rng):
        xt = rng.normal(size=(2, 8, 8)).astype(np.float32)
        y, z = rng.normal(size=(2, 2, 2)), rng.normal(size=(1, 8, 8))
        got = assemble_condition(xt, y, z)
        want = assemble_condition(xt, y.astype(np.float32), z.astype(np.float32))
        assert got.dtype == np.float32 and got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("window,xt_size", [
        (np.s_[8:24, 0:16], (8, 16)),   # numpy would cut it to 8 rows
        (np.s_[-8:, 0:16], (8, 16)),
        (np.s_[0:16:2, 0:16], (8, 16)),
        (np.s_[4:4, 0:16], (0, 16)),
        ((slice(0, 16),), (16, 16)),
        ([slice(0, 16), slice(0, 16)], (16, 16)),
    ])
    def test_window_outside_z_grid_refused(self, rng, window, xt_size):
        xt = rng.normal(size=(2, *xt_size))
        y, z = rng.normal(size=(2, 4, 4)), rng.normal(size=(1, 16, 16))
        with pytest.raises(ValueError, match="inside z's grid|pair of slices"):
            assemble_condition(xt, y, z, window=window)

    def test_window_of_another_size_than_x_t_refused(self, rng):
        xt = rng.normal(size=(2, 16, 16))
        y, z = rng.normal(size=(2, 4, 4)), rng.normal(size=(1, 16, 16))
        with pytest.raises(ValueError, match="spatial"):
            assemble_condition(xt, y, z, window=np.s_[0:8, 0:16])


class TestPredictNoise:
    def test_output_shape(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, rng)
        x = rng.normal(size=(cfg.in_channels, 8, 8)).astype(np.float32)
        assert predict_noise(params, cfg, x, 3).shape == (2, 8, 8)

    def test_float32_input_gives_float32_output(self, rng):
        cfg = tiny_config()
        x = rng.normal(size=(cfg.in_channels, 8, 8)).astype(np.float32)
        assert predict_noise(init_params(cfg, rng), cfg, x, 3).dtype == np.float32

    def test_zero_head_means_zero_output(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, rng)  # head conv zero-initialized
        x = rng.normal(size=(cfg.in_channels, 8, 8)).astype(np.float32)
        out = predict_noise(params, cfg, x, 5)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_deterministic(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, rng)
        for p in params.values():
            p.data += 0.01 * rng.normal(size=p.shape).astype(p.data.dtype)
        x = rng.normal(size=(cfg.in_channels, 8, 8)).astype(np.float32)
        a = predict_noise(params, cfg, x, 3).data.copy()
        b = predict_noise(params, cfg, x, 3).data.copy()
        assert np.array_equal(a, b)

    def test_time_sensitivity(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, rng)
        params["head.conv.w"].data[:] = 0.1 * rng.normal(size=params["head.conv.w"].shape)
        x = rng.normal(size=(cfg.in_channels, 8, 8)).astype(np.float32)
        a = predict_noise(params, cfg, x, 1).data
        b = predict_noise(params, cfg, x, 200).data
        assert np.linalg.norm(a - b) > 0

    def test_inference_peak_of_the_readme_model(self, rng, peak_alloc):
        # one untaped 128x128 evaluation, as fuse runs it: 16.24 MiB while the
        # norms and the nearest upsamples wrote maps that each conv then
        # copied into its padded buffer, 14.05 MiB since they write there
        cfg = DenoiserConfig(bands=31, msi_bands=3, scale=8)
        params = {k: Tensor(p.data) for k, p in init_params(cfg, rng).items()}
        x = Tensor(rng.random((cfg.in_channels, 128, 128)).astype(np.float32))
        with peak_alloc() as mem:
            predict_noise(params, cfg, x, 3)
        assert mem.peak < 14.5 * 2**20, f"evaluation peaked at {mem.peak / 2**20:.2f} MiB"

    def test_every_parameter_consumed(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, rng)
        x = rng.normal(size=(cfg.in_channels, 8, 8)).astype(np.float32)
        extra = dict(params)
        extra["unused.w"] = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="never uses"):
            predict_noise(extra, cfg, x, 1)
        missing = dict(params)
        missing.pop("mid.res1.conv1.w")
        with pytest.raises(ValueError, match="missing"):
            predict_noise(missing, cfg, x, 1)

    @pytest.mark.parametrize("name, shape", [
        ("down0.pool.w", (8, 8, 1, 1)),
        ("up1.up.w", (8, 16, 5, 5)),
        ("head.conv.b", (3,)),
        ("down1.res.norm1.g", (4,)),
    ])
    def test_mis_shaped_parameter_named(self, rng, name, shape):
        # weights whose shapes disagree with the config fail by parameter
        # name before any op sees them
        cfg = tiny_config()
        params = init_params(cfg, rng)
        params[name] = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
        x = rng.normal(size=(cfg.in_channels, 8, 8)).astype(np.float32)
        with pytest.raises(ValueError, match=re.escape(f"parameter '{name}' has shape {shape}")):
            predict_noise(params, cfg, x, 1)

    def test_wrong_channels_or_size(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, rng)
        with pytest.raises(ValueError, match="channels"):
            predict_noise(params, cfg, rng.normal(size=(4, 8, 8)), 1)
        with pytest.raises(ValueError, match="divisible"):
            predict_noise(params, cfg, rng.normal(size=(cfg.in_channels, 9, 9)), 1)

    def test_end_to_end_gradient_on_sampled_params(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, rng, dtype=np.float64)
        params["head.conv.w"].data[:] = 0.2 * rng.normal(size=params["head.conv.w"].shape)
        xt = rng.normal(size=(2, 8, 8))
        y = rng.normal(size=(2, 2, 2))
        z = rng.normal(size=(1, 8, 8))
        target = rng.normal(size=(2, 8, 8))

        def loss():
            cond = assemble_condition(xt, y, z)
            return simple_loss(target, predict_noise(params, cfg, cond, 3), 2)

        backward(loss())
        names = sorted(params)
        picked = [names[i] for i in rng.choice(len(names), size=8, replace=False)]
        for name in picked:
            p = params[name]
            fd = numerical_grad(loss, p)
            got = p.grad if p.grad is not None else np.zeros_like(p.data)
            denom = np.maximum(np.abs(fd), 1e-6)
            rel = np.abs(got - fd) / denom
            assert rel.max() < 1e-3, f"{name}: rel err {rel.max():.2e}"


class TestConfigAndParams:
    def test_param_count_near_reported_size(self, rng):
        # full-size default: 31 bands + 3-band conditioning; the width was
        # chosen so the total lands near the ~1.7M sizing estimate
        cfg = DenoiserConfig(bands=31, msi_bands=3, scale=32)
        n = param_count(init_params(cfg, rng))
        assert 1.4e6 < n < 2.4e6

    def test_full_size_forward_shape(self, rng):
        # default config on a 64x64 patch: 31-band output at input resolution
        cfg = DenoiserConfig(bands=31, msi_bands=3, scale=32)
        params = init_params(cfg, rng)
        xt = rng.normal(size=(31, 64, 64)).astype(np.float32)
        y = rng.normal(size=(31, 2, 2)).astype(np.float32)
        z = rng.normal(size=(3, 64, 64)).astype(np.float32)
        out = predict_noise(params, cfg, assemble_condition(xt, y, z), 2000)
        assert out.shape == (31, 64, 64)

    def test_side_multiple(self, rng):
        # one halving per level below the top; predict_noise names the rule
        for mults, side in (((1,), 1), ((1, 2), 2), ((1, 2, 4), 4)):
            assert tiny_config(channel_multipliers=mults, attention_levels=()).side_multiple == side
        cfg = tiny_config()
        with pytest.raises(ValueError, match=r"not divisible by 2\^\(levels-1\) = 2"):
            predict_noise(init_params(cfg, rng), cfg, rng.normal(size=(cfg.in_channels, 6, 5)), 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            tiny_config(time_embed_dim=7)
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(base_channels=6, groups=4)
        with pytest.raises(ValueError, match="attention"):
            tiny_config(attention_levels=(5,))
        with pytest.raises(ValueError, match="prediction 'v'"):
            tiny_config(prediction="v")

    @pytest.mark.parametrize("name, value", [
        ("bands", "x"),
        ("scale", None),
        ("groups", 0),
        ("msi_bands", True),
        ("time_embed_dim", 8.0),
        ("base_channels", -8),
        ("channel_multipliers", 5),
        ("channel_multipliers", [1, 2.5]),
        ("channel_multipliers", [1, 0]),
        ("attention_levels", "ab"),
        ("attention_levels", [False]),
    ])
    def test_field_types_checked(self, name, value):
        # each of these once loaded, or failed with a ZeroDivisionError or
        # TypeError that named no field
        with pytest.raises(ValueError, match=f"model config '{name}' must be"):
            DenoiserConfig.from_dict({**tiny_config().to_dict(), name: value})

    def test_numpy_integers_become_ints(self):
        cfg = tiny_config(bands=np.int64(2), channel_multipliers=[np.int64(1), np.int64(2)])
        assert cfg == tiny_config() and type(cfg.bands) is int
        assert all(type(m) is int for m in cfg.channel_multipliers)

    def test_roundtrip_dict(self):
        cfg = tiny_config()
        assert DenoiserConfig.from_dict(cfg.to_dict()) == cfg
        x0 = tiny_config(prediction="x0")
        assert x0.to_dict()["prediction"] == "x0"
        assert DenoiserConfig.from_dict(x0.to_dict()) == x0

    def test_default_estimator_left_out_of_dict(self):
        # eps run configs and checkpoint headers keep their old keys
        assert "prediction" not in tiny_config().to_dict()
        assert DenoiserConfig.from_dict(tiny_config().to_dict()).prediction == "eps"

    def test_init_deterministic_given_rng(self):
        cfg = tiny_config()
        a = init_params(cfg, np.random.default_rng(3))
        b = init_params(cfg, np.random.default_rng(3))
        assert sorted(a) == sorted(b)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_init_draws_pinned(self):
        # seeded runs, stored checkpoints and the benchmark's references rest
        # on these draws, and the benchmark keeps drawing from the same rng
        # after init_params, so the rng state it leaves is pinned too
        rng = np.random.default_rng(0)
        params = init_params(tiny_config(), rng)
        digest = hashlib.sha256()
        for name in sorted(params):
            data = params[name].data
            digest.update(name.encode())
            digest.update(repr(data.shape).encode())
            digest.update(data.tobytes())
        assert digest.hexdigest() == (
            "95c5495dc6987b8ae62d01daf199c317edd7611ca43d94381910c8e46a8a412b"
        )
        assert rng.random() == 0.7782382259656461
