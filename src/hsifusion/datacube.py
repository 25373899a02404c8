"""Image cubes and their on-disk format.

A cube file is a two-line text header followed by the raw payload:

    HSICUBE 1
    {"bands": 31, "height": 512, "width": 512, "dtype": "f32",
     "interleave": "band-sequential", "value_range": [0.0, 1.0],
     "wavelengths_nm": [...]}          <- single JSON line, wavelengths optional
    <bands * height * width little-endian float32 values, band-major>

The format is deliberately minimal: endian-pinned, lossless for 32-bit data,
and byte-countable from the header alone.

The checkpoint format shares the payload helpers: ``_read_header`` (a JSON
object with typed required keys), ``_read_payload`` (sizes the rest of the
file against (shape, little-endian dtype) specs, then reads each array into
place) and ``_write_payload`` (a byte view of each array in its dtype).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MAGIC_LINE = b"HSICUBE 1\n"


class CubeFormatError(ValueError):
    """Raised for malformed cube files."""


@dataclass
class HsiCube:
    """Band-major image cube (bands, height, width) with value-range metadata."""

    data: np.ndarray
    value_range: tuple[float, float] = (0.0, 1.0)
    wavelengths_nm: list[float] | None = None
    name: str | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ValueError(f"cube data must be 3-D (bands, H, W), got {self.data.shape}")
        lo, hi = self.value_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"value_range must be finite with lo < hi, got {self.value_range}")
        self.value_range = (float(lo), float(hi))
        if self.wavelengths_nm is not None:
            self.wavelengths_nm = [float(v) for v in self.wavelengths_nm]
            if not all(map(math.isfinite, self.wavelengths_nm)):
                raise ValueError(f"wavelengths must be finite, got {self.wavelengths_nm}")
            if len(self.wavelengths_nm) != self.bands:
                raise ValueError(
                    f"{len(self.wavelengths_nm)} wavelengths for {self.bands} bands"
                )

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def as_cube_array(x) -> np.ndarray:
    """Accept an HsiCube or a bare (bands, H, W) array."""
    arr = x.data if isinstance(x, HsiCube) else np.asarray(x)
    if arr.ndim != 3:
        raise ValueError(f"expected a (bands, H, W) cube, got shape {arr.shape}")
    return arr


@contextmanager
def _atomic_open(path):
    """Binary file handle whose contents replace ``path`` only once complete.

    Writes go to a temporary file in the same directory, which ``os.replace``
    moves over ``path`` after the block succeeds and which is removed if the
    block raises, so a crash mid-write leaves any previous ``path`` intact.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _atomic_write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through ``_atomic_open``."""
    with _atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def _read_header(raw: bytes, path, error, required, counts=()) -> dict:
    """Decode a JSON header and check it with ``_check_fields``; any failure
    raises the caller's ``error`` type."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: unreadable header: {exc}") from None
    return _check_fields(header, f"{path}: header", error, required, counts)


def _is_number(v) -> bool:
    # never a bool, nor the Infinity and NaN that Python's json reads
    return type(v) is int or (type(v) is float and math.isfinite(v))


def _check_fields(obj, where, error, required=(), counts=(), numbers=()) -> dict:
    """Check that ``obj`` is a JSON object with every key of ``required``, a
    non-negative int under each of ``counts`` and a finite int or float under
    each of ``numbers`` (never a bool); else raise ``error`` naming ``where``."""
    if not isinstance(obj, dict):
        raise error(f"{where} is not a JSON object")
    missing = [k for k in (*required, *counts, *numbers) if k not in obj]
    if missing:
        raise error(f"{where} has no {', '.join(map(repr, missing))}")
    for keys, what, ok in ((counts, "a non-negative integer", lambda v: type(v) is int and v >= 0),
                           (numbers, "a number", _is_number)):
        for k in keys:
            if not ok(obj[k]):
                raise error(f"{where} has {k!r} {obj[k]!r}, not {what}")
    return obj


def _read_payload(fh, specs, path, error) -> list[np.ndarray]:
    """Read the rest of ``fh`` into one new array per (shape, little-endian
    dtype) spec. The remaining file size must match the specs exactly, and is
    checked before anything is allocated."""
    sizes = [math.prod(shape) * np.dtype(dt).itemsize for shape, dt in specs]
    expected = sum(sizes)  # exact: a corrupt shape must not wrap around
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if held != expected:
        kind = "truncated" if held < expected else "trailing bytes"
        raise error(f"{path}: payload holds {held} bytes, header implies {expected} ({kind})")
    arrays = [np.empty(shape, dtype=dt) for shape, dt in specs]
    for arr, n_bytes in zip(arrays, sizes):
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
            raise error(f"{path}: payload truncated while being read")
    return arrays


def _write_payload(fh, arrays) -> None:
    """Write each (array, little-endian dtype) pair as a byte view of the array
    in that dtype; only an array held in another dtype or layout is copied."""
    for arr, dt in arrays:
        fh.write(np.ascontiguousarray(arr, dtype=dt).reshape(-1).view(np.uint8))


def write_cube(path, cube: HsiCube) -> None:
    data = np.ascontiguousarray(cube.data, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise CubeFormatError("cube contains non-finite values; refusing to write")
    header = {
        "bands": cube.bands,
        "height": cube.height,
        "width": cube.width,
        "dtype": "f32",
        "interleave": "band-sequential",
        "value_range": list(cube.value_range),
    }
    if cube.wavelengths_nm is not None:
        header["wavelengths_nm"] = cube.wavelengths_nm
    with _atomic_open(path) as fh:
        fh.write(MAGIC_LINE)
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        _write_payload(fh, [(data, "<f4")])


def read_cube(path) -> HsiCube:
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != MAGIC_LINE:
            raise CubeFormatError(f"{path}: bad magic line {magic!r}")
        header = _read_header(fh.readline(), path, CubeFormatError,
                              ("dtype", "interleave", "value_range"),
                              counts=("bands", "height", "width"))
        for key, wanted in (("dtype", "f32"), ("interleave", "band-sequential")):
            if header[key] != wanted:
                raise CubeFormatError(f"{path}: unsupported {key} '{header[key]}'")
        value_range, wavelengths = header["value_range"], header.get("wavelengths_nm")
        if not (isinstance(value_range, list) and len(value_range) == 2
                and all(map(_is_number, value_range))):
            raise CubeFormatError(
                f"{path}: header has 'value_range' {value_range!r}, not a list of two numbers"
            )
        if wavelengths is not None and not (isinstance(wavelengths, list)
                                            and all(map(_is_number, wavelengths))):
            raise CubeFormatError(
                f"{path}: header has 'wavelengths_nm' {wavelengths!r}, not a list of numbers"
            )
        shape = (header["bands"], header["height"], header["width"])
        [data] = _read_payload(fh, [(shape, "<f4")], path, CubeFormatError)
    if not np.all(np.isfinite(data)):
        raise CubeFormatError(f"{path}: payload contains non-finite values")
    return HsiCube(data, value_range=tuple(value_range), wavelengths_nm=wavelengths)
