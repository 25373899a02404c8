import numpy as np
import pytest

from hsifusion.datacube import HsiCube
from hsifusion.degrade import (
    ObservationModel,
    SrfFormatError,
    load_srf,
    simulate_observations,
    spatial_degrade,
    spectral_degrade,
    uniform_band_groups,
)


def model(block=2, srf=None, **kw):
    if srf is None:
        srf = np.eye(3)
    return ObservationModel(block=block, srf=srf, **kw)


class TestSpatialDegrade:
    def test_full_scene_block32(self, rng):
        x = rng.random((2, 512, 512)).astype(np.float32)
        out = spatial_degrade(x, ObservationModel(block=32, srf=np.eye(2)))
        assert out.shape == (2, 16, 16)

    def test_constant_preserved(self):
        x = np.full((3, 8, 8), 0.7, dtype=np.float32)
        out = spatial_degrade(x, model(block=4))
        np.testing.assert_allclose(out, 0.7, rtol=1e-6)

    def test_block_mean_value(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        out = spatial_degrade(x, ObservationModel(block=2, srf=np.eye(1)))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(2.5)

    def test_indivisible_rejected(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            spatial_degrade(rng.random((1, 9, 9)), model(block=2, srf=np.eye(1)))

    def test_noise_applied_when_configured(self, rng):
        x = np.zeros((1, 8, 8), dtype=np.float32)
        m = ObservationModel(block=2, srf=np.eye(1), noise_std_y=0.5)
        out = spatial_degrade(x, m, rng)
        assert np.std(out) > 0


class TestSpectralDegrade:
    def test_identity_srf(self, rng):
        x = rng.random((3, 4, 4)).astype(np.float32)
        out = spectral_degrade(x, model())
        np.testing.assert_allclose(out, x, rtol=1e-6)

    def test_uniform_row_is_spectral_mean(self, rng):
        x = rng.random((5, 3, 3)).astype(np.float32)
        m = ObservationModel(block=1, srf=np.ones((1, 5)))
        out = spectral_degrade(x, m)
        np.testing.assert_allclose(out[0], x.mean(axis=0), rtol=1e-5)

    def test_band_count_change(self, rng):
        x31 = rng.random((31, 4, 4)).astype(np.float32)
        m = ObservationModel(block=32, srf=uniform_band_groups(31, 3))
        assert spectral_degrade(x31, m).shape == (3, 4, 4)
        x102 = rng.random((102, 4, 4)).astype(np.float32)
        m4 = ObservationModel(block=32, srf=uniform_band_groups(102, 4))
        assert spectral_degrade(x102, m4).shape == (4, 4, 4)

    def test_band_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="bands"):
            spectral_degrade(rng.random((4, 3, 3)), model())


class TestObservationModel:
    def test_rows_normalized_on_construction(self):
        m = ObservationModel(block=2, srf=np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(m.srf.sum(axis=1), 1.0)

    def test_negative_srf_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ObservationModel(block=2, srf=np.array([[1.0, -0.1]]))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ObservationModel(block=2, srf=np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("block", [2.5, True, "2", None])
    def test_non_integer_block_named(self, block):
        # 2.5 and True were accepted; "2" and None raised a bare TypeError
        with pytest.raises(ValueError, match=f"block size must be an integer, got {block!r}"):
            ObservationModel(block=block, srf=uniform_band_groups(2, 1))

    def test_simulate_observations_pair(self, rng):
        cube = HsiCube(rng.random((4, 8, 8)).astype(np.float32), value_range=(0, 1))
        y, z = simulate_observations(cube, ObservationModel(block=4, srf=uniform_band_groups(4, 2)))
        assert y.data.shape == (4, 2, 2)
        assert z.data.shape == (2, 8, 8)
        assert y.value_range == cube.value_range


class TestInvariants:
    def test_energy_preservation(self, rng):
        x = rng.random((3, 16, 16))
        out = spatial_degrade(x, model(block=4))
        np.testing.assert_allclose(
            out.mean(axis=(1, 2)), x.mean(axis=(1, 2)), atol=1e-6
        )

    def test_spatial_spectral_commute(self, rng):
        x = rng.random((6, 12, 12))
        m = ObservationModel(block=3, srf=uniform_band_groups(6, 2))
        a = spectral_degrade(spatial_degrade(x, m), m)
        b = spatial_degrade(spectral_degrade(x, m), m)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_ones_spectrum_maps_to_ones(self, rng):
        srf = np.abs(rng.random((3, 7))) + 0.1
        m = ObservationModel(block=1, srf=srf)
        x = np.ones((7, 2, 2))
        np.testing.assert_allclose(spectral_degrade(x, m), 1.0, atol=1e-6)


class TestLoadSrf:
    def _write(self, tmp_path, text):
        p = tmp_path / "table.csv"
        p.write_text(text)
        return p

    def test_normalized_rows_unchanged(self, tmp_path):
        p = self._write(tmp_path, "400,500,600\n0.5,0.25,0.25\n0.0,0.5,0.5\n")
        srf = load_srf(p)
        np.testing.assert_allclose(srf, [[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]])

    def test_scale_invariance(self, tmp_path):
        a = load_srf(self._write(tmp_path, "400,500,600\n1,2,3\n"))
        b = load_srf(self._write(tmp_path, "400,500,600\n10,20,30\n"))
        np.testing.assert_allclose(a, b)

    def test_shipped_tables_valid(self):
        from importlib import resources

        for name in ("rgb_3band.csv", "rgb_nir_4band.csv"):
            with resources.as_file(resources.files("hsifusion") / "srf" / name) as p:
                srf = load_srf(p)
            assert np.all(srf >= 0)
            np.testing.assert_allclose(srf.sum(axis=1), 1.0, atol=1e-6)

    def test_interpolation_onto_cube_grid(self, tmp_path):
        p = self._write(tmp_path, "400,600\n1.0,0.0\n")
        srf = load_srf(p, wavelengths_nm=[400, 500, 600])
        np.testing.assert_allclose(srf, [[1.0, 0.5, 0.0]] / np.array(1.5))

    def test_coverage_gap_rejected(self, tmp_path):
        p = self._write(tmp_path, "450,600\n1.0,1.0\n")
        with pytest.raises(SrfFormatError, match="covers"):
            load_srf(p, wavelengths_nm=[400, 500, 600])

    def test_malformed_rows_flagged(self, tmp_path):
        with pytest.raises(SrfFormatError, match="row 2"):
            load_srf(self._write(tmp_path, "400,500\nabc,1\n"))
        with pytest.raises(SrfFormatError, match="row 2"):
            load_srf(self._write(tmp_path, "400,500\n1,2,3\n"))
        with pytest.raises(SrfFormatError, match="negative"):
            load_srf(self._write(tmp_path, "400,500\n-1,2\n"))
        with pytest.raises(SrfFormatError, match="increasing"):
            load_srf(self._write(tmp_path, "500,400\n1,2\n"))
        with pytest.raises(SrfFormatError):
            load_srf(self._write(tmp_path, "400,500\n"))


class TestUniformBandGroups:
    def test_group_shapes_and_rows(self):
        srf = uniform_band_groups(8, 3)
        assert srf.shape == (3, 8)
        np.testing.assert_allclose(srf.sum(axis=1), 1.0)
        # contiguous groups cover every band exactly once
        np.testing.assert_allclose((srf > 0).sum(axis=0), 1)

    def test_bad_group_count(self):
        with pytest.raises(ValueError):
            uniform_band_groups(4, 5)
