import json
import re

import numpy as np
import pytest

from hsifusion.datacube import CubeFormatError, HsiCube, read_cube, write_cube


class TestHsiCube:
    def test_dimensionality_enforced(self, rng):
        with pytest.raises(ValueError, match="3-D"):
            HsiCube(rng.random((4, 4)))

    def test_value_range_ordering(self, rng):
        with pytest.raises(ValueError, match="lo < hi"):
            HsiCube(rng.random((1, 2, 2)), value_range=(1.0, 0.0))

    def test_wavelength_count_checked(self, rng):
        with pytest.raises(ValueError, match="wavelengths"):
            HsiCube(rng.random((3, 2, 2)), wavelengths_nm=[400, 500])

    @pytest.mark.parametrize("kw", [dict(value_range=(0.0, np.inf)),
                                    dict(value_range=(np.nan, 1.0)),
                                    dict(wavelengths_nm=[400.0, np.nan])])
    def test_non_finite_metadata_rejected(self, rng, kw):
        with pytest.raises(ValueError, match="finite"):
            HsiCube(rng.random((2, 2, 2)), **kw)


class TestRoundTrip:
    def test_failed_write_keeps_old_file(self, rng, tmp_path, full_disk):
        p = tmp_path / "cube.hsic"
        with open(p, "wb") as fh:
            fh.write(b"previous cube bytes")
        with pytest.raises(OSError, match="No space"):
            write_cube(p, HsiCube(rng.random((3, 8, 8)).astype(np.float32)))
        assert p.read_bytes() == b"previous cube bytes"
        assert [f.name for f in tmp_path.iterdir()] == ["cube.hsic"]

    def test_bit_exact(self, rng, tmp_path):
        cube = HsiCube(
            rng.normal(size=(5, 7, 6)).astype(np.float32),
            value_range=(-1.0, 2.0),
            wavelengths_nm=[400, 450, 500, 550, 600],
        )
        p = tmp_path / "cube.hsic"
        write_cube(p, cube)
        back = read_cube(p)
        assert np.array_equal(back.data, cube.data)
        assert back.data.dtype == np.float32
        assert back.value_range == cube.value_range
        assert back.wavelengths_nm == cube.wavelengths_nm

    def test_zero_size_dimension(self, tmp_path):
        p = tmp_path / "empty.hsic"
        write_cube(p, HsiCube(np.zeros((3, 0, 5), dtype=np.float32)))
        back = read_cube(p)
        assert back.data.shape == (3, 0, 5) and back.data.dtype == np.float32

    def test_full_scene_payload_size(self, tmp_path):
        cube = HsiCube(np.zeros((31, 512, 512), dtype=np.float32))
        p = tmp_path / "big.hsic"
        write_cube(p, cube)
        with open(p, "rb") as fh:
            fh.readline()
            header_len = len(fh.readline())
            payload = fh.read()
        assert len(payload) == 31 * 512 * 512 * 4 == 32_505_856
        assert p.stat().st_size == 10 + header_len + 32_505_856


class TestValidation:
    def _write_valid(self, tmp_path, rng):
        p = tmp_path / "c.hsic"
        write_cube(p, HsiCube(rng.random((2, 3, 3)).astype(np.float32)))
        return p

    def test_truncated_payload_reports_counts(self, tmp_path, rng):
        p = self._write_valid(tmp_path, rng)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(CubeFormatError, match=r"64.*72|holds 64"):
            read_cube(p)

    def test_trailing_payload_bytes_reported(self, tmp_path, rng):
        p = self._write_valid(tmp_path, rng)
        p.write_bytes(p.read_bytes() + b"\x00" * 4)
        with pytest.raises(CubeFormatError, match=r"holds 76 bytes, header implies 72 \(trailing"):
            read_cube(p)

    def test_header_not_an_object(self, tmp_path):
        p = tmp_path / "bad.hsic"
        p.write_bytes(b"HSICUBE 1\n5\n")
        with pytest.raises(CubeFormatError, match="header is not a JSON object"):
            read_cube(p)

    def test_bad_magic(self, tmp_path, rng):
        p = self._write_valid(tmp_path, rng)
        raw = bytearray(p.read_bytes())
        raw[0] = ord("X")
        p.write_bytes(bytes(raw))
        with pytest.raises(CubeFormatError, match="magic"):
            read_cube(p)

    def test_missing_header_field(self, tmp_path):
        p = tmp_path / "bad.hsic"
        p.write_bytes(b'HSICUBE 1\n{"bands": 1, "height": 2}\n' + b"\x00" * 8)
        with pytest.raises(CubeFormatError, match="width"):
            read_cube(p)

    @pytest.mark.parametrize("field", ["bands", "height", "width"])
    @pytest.mark.parametrize("value", [None, "x", "2", True, 2.0, -1, [2]])
    def test_size_must_be_a_non_negative_integer(self, tmp_path, field, value):
        p = tmp_path / "bad.hsic"
        header = {"bands": 2, "height": 2, "width": 2, "dtype": "f32",
                  "interleave": "band-sequential", "value_range": [0, 1], field: value}
        p.write_bytes(b"HSICUBE 1\n" + json.dumps(header).encode() + b"\n" + b"\x00" * 32)
        with pytest.raises(CubeFormatError,
                           match=re.escape(f"has '{field}' {value!r}, not a non-negative")):
            read_cube(p)

    @pytest.mark.parametrize("field,value,what", [
        ("value_range", None, "a list of two numbers"),
        ("value_range", [0, 1, 2], "a list of two numbers"),
        ("value_range", [0], "a list of two numbers"),
        ("value_range", ["0", "1"], "a list of two numbers"),
        ("value_range", [False, True], "a list of two numbers"),
        ("value_range", {"lo": 0, "hi": 1}, "a list of two numbers"),
        ("wavelengths_nm", "400", "a list of numbers"),
        ("wavelengths_nm", [400, None], "a list of numbers"),
        ("wavelengths_nm", {"0": 400}, "a list of numbers"),
        # Python's json reads Infinity and NaN; a header must not carry them
        ("value_range", [0, float("inf")], "a list of two numbers"),
        ("value_range", [float("nan"), 1], "a list of two numbers"),
        ("wavelengths_nm", [400, float("-inf")], "a list of numbers"),
    ])
    def test_metadata_must_be_numbers(self, tmp_path, field, value, what):
        p = tmp_path / "bad.hsic"
        header = {"bands": 2, "height": 2, "width": 2, "dtype": "f32",
                  "interleave": "band-sequential", "value_range": [0, 1], field: value}
        p.write_bytes(b"HSICUBE 1\n" + json.dumps(header).encode() + b"\n" + b"\x00" * 32)
        with pytest.raises(CubeFormatError,
                           match=re.escape(f"has '{field}' {value!r}, not {what}")):
            read_cube(p)

    @pytest.mark.parametrize("wavelengths", [None, [400, 500.5]])
    def test_integral_range_and_optional_wavelengths_load(self, tmp_path, wavelengths):
        p = tmp_path / "ok.hsic"
        header = {"bands": 2, "height": 2, "width": 2, "dtype": "f32",
                  "interleave": "band-sequential", "value_range": [0, 255],
                  "wavelengths_nm": wavelengths}
        p.write_bytes(b"HSICUBE 1\n" + json.dumps(header).encode() + b"\n" + b"\x00" * 32)
        cube = read_cube(p)
        assert cube.value_range == (0.0, 255.0)
        assert cube.wavelengths_nm == wavelengths

    def test_unsupported_dtype_named(self, tmp_path):
        p = tmp_path / "bad.hsic"
        header = (b'{"bands": 1, "height": 1, "width": 1, "dtype": "f64", '
                  b'"interleave": "band-sequential", "value_range": [0, 1]}')
        p.write_bytes(b"HSICUBE 1\n" + header + b"\n" + b"\x00" * 8)
        with pytest.raises(CubeFormatError, match="dtype"):
            read_cube(p)

    def test_non_finite_values_refused_on_write(self, tmp_path):
        cube = HsiCube(np.full((1, 2, 2), np.nan, dtype=np.float32))
        with pytest.raises(CubeFormatError, match="non-finite"):
            write_cube(tmp_path / "nan.hsic", cube)
