"""Image cubes and their on-disk format.

A cube file is a two-line text header followed by the raw payload:

    HSICUBE 1
    {"bands": 31, "height": 512, "width": 512, "dtype": "f32",
     "interleave": "band-sequential", "value_range": [0.0, 1.0],
     "wavelengths_nm": [...]}          <- single JSON line, wavelengths optional
    <bands * height * width little-endian float32 values, band-major>

The format is deliberately minimal: endian-pinned, lossless for 32-bit data,
and byte-countable from the header alone. ``HsiCube`` owns the metadata
rules (``value_range`` and ``wavelengths_nm``): ``read_cube`` checks only the
header's layout and sizes, and reports a metadata fault ``HsiCube`` finds as a
``CubeFormatError`` naming the file.

The checkpoint format shares the payload helpers: ``_read_header`` (a JSON
object with typed required keys), ``_read_payload`` (sizes the rest of the
file against (shape, little-endian dtype) specs, then reads each array into
place) and ``_write_payload`` (a byte view of each array in its dtype).
The package's value checks live here too, for JSON objects (``_check_fields``)
and for configs (``_int_at_least``, ``_number_in``, ``_config_from_dict``).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields

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
        vr, wl = self.value_range, self.wavelengths_nm
        if not (isinstance(vr, (tuple, list)) and len(vr) == 2 and all(map(_is_number, vr))
                and vr[0] < vr[1]):
            raise ValueError(f"has 'value_range' {vr!r}, not a list of two numbers "
                             f"(finite, with lo < hi)")
        self.value_range = (float(vr[0]), float(vr[1]))
        if wl is not None:
            if not (isinstance(wl, (tuple, list, np.ndarray)) and all(map(_is_number, wl))):
                raise ValueError(f"has 'wavelengths_nm' {wl!r}, not a list of numbers (finite)")
            if len(wl) != self.bands:
                raise ValueError(f"has {len(wl)} wavelengths for {self.bands} bands")
            self.wavelengths_nm = [float(v) for v in wl]

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


def _is_int(v) -> bool:
    # NumPy integers too, but never a bool: JSON true/false must not pass for 1/0
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # an integer or a finite float, NumPy's too; never a bool, nor the
    # Infinity and NaN that Python's json reads
    return _is_int(v) or (isinstance(v, (float, np.floating)) and math.isfinite(v))


def _int_at_least(value, low: int, what: str) -> int:
    """``value`` as a Python int if it is an integer >= ``low``; else a ValueError."""
    if not (_is_int(value) and value >= low):
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def _number_in(value, low, high, what: str, low_closed: bool = False) -> float:
    """``value`` as a Python float if it is a number in (low, high), or in
    [low, high) with ``low_closed``; else a ValueError."""
    if not (_is_number(value) and low <= value < high and (low_closed or value != low)):
        interval = f"{'[' if low_closed else '('}{low}, {high})"
        raise ValueError(f"{what} must be a number in {interval}, got {value!r}")
    return float(value)


def _config_from_dict(cls, d: dict, what: str):
    """``cls(**d)`` for a dataclass config, after naming every key of ``d``
    that is not a field and every field without a default that ``d`` lacks."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.default_factory is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"missing {what} keys: {', '.join(missing)}")
    return cls(**d)


def _check_fields(obj, where, error, required=(), counts=(), numbers=(), strings=()) -> dict:
    """Check that ``obj`` is a JSON object with every key of ``required``, a
    non-negative int under each of ``counts``, a finite int or float under
    each of ``numbers`` (never a bool) and a string under each of
    ``strings``; else raise ``error`` naming ``where``."""
    if not isinstance(obj, dict):
        raise error(f"{where} is not a JSON object")
    missing = [k for k in (*required, *counts, *numbers, *strings) if k not in obj]
    if missing:
        raise error(f"{where} has no {', '.join(map(repr, missing))}")
    for keys, what, ok in ((counts, "a non-negative integer", lambda v: _is_int(v) and v >= 0),
                           (numbers, "a number", _is_number),
                           (strings, "a string", lambda v: isinstance(v, str))):
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
        shape = (header["bands"], header["height"], header["width"])
        [data] = _read_payload(fh, [(shape, "<f4")], path, CubeFormatError)
    if not np.all(np.isfinite(data)):
        raise CubeFormatError(f"{path}: payload contains non-finite values")
    try:
        return HsiCube(data, value_range=header["value_range"],
                       wavelengths_nm=header.get("wavelengths_nm"))
    except ValueError as exc:
        raise CubeFormatError(f"{path}: header {exc}") from None
