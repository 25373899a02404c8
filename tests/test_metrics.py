import json
import math
import warnings

import numpy as np
import pytest

import hsifusion.metrics
from hsifusion.datacube import HsiCube
from hsifusion.metrics import FusionReport, band_rmse, ergas, psnr, sam, sam_detailed, ssim

from oracles import ergas_loops, report_whole_cube, sam_loops


def cube(arr, lo=0.0, hi=255.0):
    return HsiCube(np.asarray(arr, dtype=np.float32), value_range=(lo, hi))


@pytest.fixture
def ref8(rng):
    return cube(rng.uniform(20, 235, size=(4, 16, 16)))


class TestPsnr:
    def test_identical_is_infinite(self, ref8):
        assert psnr(ref8, ref8) == math.inf

    def test_uniform_offset_closed_form(self, ref8):
        est = cube(ref8.data + 1.0)
        assert psnr(ref8, est) == pytest.approx(20 * math.log10(255), abs=0.01)
        assert psnr(ref8, est) == pytest.approx(48.13, abs=0.01)

    def test_doubling_error_costs_six_db(self, rng):
        # integer-valued data keeps ref + d and ref + 2d exact in float32,
        # so the MSE ratio is exactly 4
        ref = cube(rng.integers(20, 200, size=(3, 8, 8)))
        noise = rng.choice([-1.0, 1.0], size=ref.data.shape).astype(np.float32)
        a = psnr(ref, cube(ref.data + noise))
        b = psnr(ref, cube(ref.data + 2 * noise))
        assert a - b == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_shape_mismatch(self, ref8, rng):
        with pytest.raises(ValueError, match="shape"):
            psnr(ref8, cube(rng.uniform(size=(4, 16, 15))))

    def test_unit_range_cubes_rescaled(self, rng):
        # a 1/255 offset in [0,1] data is one 8-bit step
        ref = HsiCube(rng.uniform(0.1, 0.9, size=(2, 8, 8)).astype(np.float32),
                      value_range=(0.0, 1.0))
        est = HsiCube((ref.data + 1.0 / 255.0).astype(np.float32), value_range=(0.0, 1.0))
        assert psnr(ref, est) == pytest.approx(48.13, abs=0.02)


class TestSam:
    def test_positive_scaling_is_ideal(self, ref8):
        est = cube(2.5 * ref8.data)
        assert sam(ref8, est) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_spectra(self):
        ref = cube(np.stack([np.ones((2, 2)), np.zeros((2, 2))]))
        est = cube(np.stack([np.zeros((2, 2)), np.ones((2, 2))]))
        assert sam(ref, est) == pytest.approx(math.pi / 2)

    def test_matches_loop_oracle(self, rng):
        ref = rng.uniform(1, 255, size=(5, 7, 6)).astype(np.float32).astype(np.float64)
        est = rng.uniform(1, 255, size=(5, 7, 6)).astype(np.float32).astype(np.float64)
        got = sam(cube(ref), cube(est))
        assert got == pytest.approx(sam_loops(ref, est), abs=1e-8)

    def test_zero_norm_pixels_skipped_and_counted(self):
        ref = np.ones((2, 2, 2), dtype=np.float32)
        est = np.ones((2, 2, 2), dtype=np.float32)
        ref[:, 0, 0] = 0.0
        angle, skipped = sam_detailed(cube(ref), cube(est))
        assert skipped == pytest.approx(0.25)
        assert angle == pytest.approx(0.0, abs=1e-7)

    def test_per_pixel_scale_invariance(self, ref8, rng):
        scale_field = rng.uniform(0.5, 2.0, size=ref8.data.shape[1:]).astype(np.float32)
        est = cube(ref8.data * scale_field[None])
        assert sam(ref8, est) == pytest.approx(0.0, abs=1e-5)


class TestErgas:
    def test_identical_is_zero(self, ref8):
        assert ergas(ref8, ref8, 32) == 0.0

    def test_single_band_closed_form(self):
        mu, r, scale = 100.0, 5.0, 4
        ref = cube(np.full((1, 8, 8), mu))
        est = cube(np.full((1, 8, 8), mu + r))
        assert ergas(ref, est, scale) == pytest.approx(100.0 / scale * r / mu, rel=1e-9)

    def test_matches_loop_oracle(self, rng):
        ref = rng.uniform(10, 255, size=(4, 6, 6)).astype(np.float32).astype(np.float64)
        est = (ref + rng.normal(size=ref.shape)).astype(np.float32).astype(np.float64)
        got = ergas(cube(ref), cube(est), 8)
        assert got == pytest.approx(ergas_loops(ref, est, 8), abs=1e-8)

    def test_zero_mean_band_excluded_with_warning(self, rng):
        ref = np.zeros((2, 4, 4), dtype=np.float32)
        ref[1] = 100.0
        est = ref + 1.0
        with pytest.warns(RuntimeWarning, match="zero reference mean"):
            value = ergas(cube(ref), cube(est), 2)
        assert value == pytest.approx(100.0 / 2 * 1.0 / 100.0, rel=1e-9)


class TestSsim:
    def test_identical_is_one(self, ref8):
        assert ssim(ref8, ref8) == pytest.approx(1.0)

    def test_inverted_image_below_one(self, ref8):
        est = cube(255.0 - ref8.data)
        assert ssim(ref8, est) < 1.0

    def test_constant_offset_closed_form(self):
        # constant windows: variance terms vanish, only luminance remains
        mu, delta = 80.0, 40.0
        ref = cube(np.full((1, 12, 12), mu))
        est = cube(np.full((1, 12, 12), mu + delta))
        c1 = (0.01 * 255) ** 2
        lum = (2 * mu * (mu + delta) + c1) / (mu**2 + (mu + delta) ** 2 + c1)
        assert ssim(ref, est) == pytest.approx(lum, abs=1e-6)

    def test_window_larger_than_image_rejected(self, rng):
        small = cube(rng.uniform(size=(1, 4, 4)))
        with pytest.raises(ValueError, match="window"):
            ssim(small, small)


class TestBandRmse:
    def test_identical_all_zero(self, ref8):
        np.testing.assert_array_equal(band_rmse(ref8, ref8), 0.0)

    def test_error_confined_to_one_band(self, ref8):
        est_data = ref8.data.copy()
        est_data[0] += 3.0
        result = band_rmse(ref8, cube(est_data))
        assert result[0] == pytest.approx(3.0, rel=1e-6)
        np.testing.assert_array_equal(result[1:], 0.0)

    def test_mse_decomposition(self, ref8, rng):
        est = cube(ref8.data + rng.normal(size=ref8.data.shape).astype(np.float32))
        rmses = band_rmse(ref8, est)
        mse = np.mean((ref8.data.astype(np.float64) - est.data) ** 2)
        assert mse == pytest.approx(np.mean(rmses**2), rel=1e-9)


class TestFusionReport:
    def test_averages_are_arithmetic_means(self, rng):
        report = FusionReport(scale=8)
        rows = []
        for i in range(3):
            ref = cube(rng.uniform(10, 245, size=(3, 12, 12)))
            est = cube(ref.data + rng.normal(size=ref.data.shape).astype(np.float32))
            rows.append(report.add(f"img{i}", ref, est))
        avg = report.averages
        for key in ("psnr_db", "sam_rad", "ergas", "ssim"):
            assert avg[key] == pytest.approx(np.mean([r[key] for r in rows]))
        assert len(avg["band_rmse"]) == 3

    @pytest.mark.parametrize("case", ["plain", "zero_mean_band", "zero_norm_pixels"])
    def test_row_equals_public_functions(self, rng, case):
        ref = rng.uniform(10, 245, size=(3, 12, 12))
        est = ref + rng.normal(size=ref.shape)
        if case == "zero_mean_band":
            ref[1] = 0.0
        if case == "zero_norm_pixels":
            ref[:, :2, :3] = 0.0
            est[:, 5, 5] = 0.0
        ref, est = cube(ref), cube(est)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = FusionReport(scale=4).add("x", ref, est)
            angle, skipped = sam_detailed(ref, est)
            want = {
                "name": "x", "psnr_db": psnr(ref, est), "sam_rad": angle,
                "sam_deg": math.degrees(angle), "sam_skipped_fraction": skipped,
                "ergas": ergas(ref, est, 4), "ssim": ssim(ref, est),
                "band_rmse": [float(v) for v in band_rmse(ref, est)],
            }
        assert row == want
        assert (len(caught) == 2) == (case == "zero_mean_band")  # add and ergas warn
        assert (skipped > 0) == (case == "zero_norm_pixels")

    def test_only_ssim_readers_run_the_windows(self, rng, monkeypatch):
        calls = []
        window_means = hsifusion.metrics._window_means

        def counting(img, k):
            calls.append(k)
            return window_means(img, k)

        monkeypatch.setattr(hsifusion.metrics, "_window_means", counting)
        ref = cube(rng.uniform(10, 245, size=(3, 12, 12)))
        est = cube(ref.data + rng.normal(size=ref.data.shape).astype(np.float32))
        for metric in (psnr, sam, sam_detailed, band_rmse, lambda r, e: ergas(r, e, 4)):
            metric(ref, est)
        assert calls == []
        ssim(ref, est)
        assert len(calls) == 5 * 3  # two means, two variances and a covariance per band
        FusionReport(scale=4).add("x", ref, est)
        assert len(calls) == 2 * 5 * 3

    @pytest.mark.parametrize("case", ["plain", "zero_mean_band", "zero_norm_pixels"])
    def test_row_matches_whole_cube_oracle(self, rng, case):
        # odd sizes, a value range other than [0, 255], and the skip cases
        ref = rng.uniform(0.05, 0.95, size=(5, 13, 11))
        est = ref + 0.02 * rng.normal(size=ref.shape)
        if case == "zero_mean_band":
            ref[2] = 0.0
        if case == "zero_norm_pixels":
            ref[:, :3, :2] = 0.0
            est[:, 7, 9] = 0.0
        ref, est = ref.astype(np.float32), est.astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            row = FusionReport(scale=4).add("x", cube(ref, 0.0, 1.0), cube(est, 0.0, 1.0))
            want = report_whole_cube(ref, est, 0.0, 1.0, 4)
        assert (want["sam_skipped_fraction"] > 0) == (case == "zero_norm_pixels")
        for key, value in want.items():
            assert row[key] == pytest.approx(value, rel=1e-12, abs=0), key

    def test_add_memory_scales_with_a_band(self, rng, peak_alloc):
        # 10.1 input cubes when the pair was converted to 8-bit whole, and
        # every metric made cube-sized temporaries; 1.2 with the band pass
        ref = cube(rng.uniform(0.0, 1.0, size=(31, 128, 128)), 0.0, 1.0)
        est = cube(np.clip(ref.data + rng.normal(0.0, 0.05, size=ref.data.shape), 0.0, 1.0),
                   0.0, 1.0)
        report = FusionReport(scale=8)
        with peak_alloc() as mem:
            report.add("x", ref, est)
        assert mem.peak <= 1.5 * ref.data.nbytes, f"{mem.peak / ref.data.nbytes:.2f} cubes"

    def test_save_writes_json_and_band_table(self, rng, tmp_path):
        report = FusionReport(scale=4)
        ref = cube(rng.uniform(10, 245, size=(2, 10, 10)))
        report.add("one", ref, cube(ref.data + 1.0))
        out = tmp_path / "report.json"
        report.save(out)
        doc = json.loads(out.read_text())
        assert doc["scale"] == 4
        assert len(doc["per_image"]) == 1
        table = (tmp_path / "report.json.bands.tsv").read_text().splitlines()
        assert table[0].startswith("band\t")
        assert len(table) == 3  # header + 2 bands


    def test_failed_save_keeps_previous_report(self, rng, tmp_path, full_disk):
        report = FusionReport(scale=4)
        ref = cube(rng.uniform(10, 245, size=(2, 10, 10)))
        report.add("one", ref, cube(ref.data + 1.0))
        out = tmp_path / "report.json"
        out.write_text("previous report")
        with pytest.raises(OSError, match="No space"):
            report.save(out)
        assert out.read_text() == "previous report"
        assert [f.name for f in tmp_path.iterdir()] == ["report.json"]


class TestTotality:
    def test_no_nan_outputs_on_degenerate_inputs(self, rng):
        # metrics stay total over finite inputs: sentinels and skips instead
        # of NaN
        zero = cube(np.zeros((2, 10, 10)))
        noisy = cube(rng.uniform(0, 255, size=(2, 10, 10)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            checks = [
                psnr(zero, zero), psnr(zero, noisy),
                sam(zero, zero), sam(zero, noisy), sam(noisy, zero),
                ergas(zero, noisy, 4), ergas(noisy, zero, 4),
                ssim(zero, zero), ssim(zero, noisy),
            ]
        for value in checks:
            assert not math.isnan(value)
        rmses = band_rmse(zero, noisy)
        assert np.all(np.isfinite(rmses))
