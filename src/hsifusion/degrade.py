"""Observation model: how the high-resolution cube degrades into the inputs.

Spatial degradation is disjoint block averaging (the experimental protocol's
PSF); spectral degradation multiplies each pixel's spectrum by a row-
normalized response matrix. Optional additive Gaussian noise on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datacube import HsiCube, _is_int, as_cube_array


class SrfFormatError(ValueError):
    """Raised when a spectral-response table cannot be parsed or validated."""


@dataclass(frozen=True)
class ObservationModel:
    block: int
    srf: np.ndarray
    noise_std_y: float = 0.0
    noise_std_z: float = 0.0

    def __post_init__(self):
        if not _is_int(self.block):
            raise ValueError(f"block size must be an integer, got {self.block!r}")
        if self.block < 1:
            raise ValueError(f"block size must be >= 1, got {self.block}")
        srf = np.asarray(self.srf, dtype=np.float64)
        if srf.ndim != 2:
            raise ValueError(f"srf must be a 2-D matrix, got shape {srf.shape}")
        if np.any(srf < 0):
            raise ValueError("srf entries must be non-negative")
        sums = srf.sum(axis=1)
        if np.any(sums <= 0):
            raise ValueError("every srf row needs positive total response")
        object.__setattr__(self, "srf", srf / sums[:, None])
        if self.noise_std_y < 0 or self.noise_std_z < 0:
            raise ValueError("noise stds must be >= 0")


def _add_noise(out: np.ndarray, std: float, rng: np.random.Generator | None) -> np.ndarray:
    """``out`` plus N(0, std^2) noise from ``rng`` (a fresh generator when
    None) if ``std`` > 0; else ``out`` itself."""
    if std > 0:
        if rng is None:
            rng = np.random.default_rng()
        out = out + rng.normal(scale=std, size=out.shape)
    return out


def spatial_degrade(
    x, model: ObservationModel, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Average disjoint block x block tiles; adds noise if configured."""
    arr = as_cube_array(x)
    bands, h, w = arr.shape
    b = model.block
    if h % b or w % b:
        raise ValueError(f"spatial size {(h, w)} not divisible by block {b}")
    out = arr.reshape(bands, h // b, b, w // b, b).mean(axis=(2, 4))
    return _add_noise(out, model.noise_std_y, rng).astype(arr.dtype)


def spectral_degrade(
    x, model: ObservationModel, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Merge bands with the response matrix: out[m] = sum_b srf[m, b] * x[b]."""
    arr = as_cube_array(x)
    if model.srf.shape[1] != arr.shape[0]:
        raise ValueError(
            f"srf expects {model.srf.shape[1]} bands, cube has {arr.shape[0]}"
        )
    out = np.tensordot(model.srf, arr, axes=(1, 0))
    return _add_noise(out, model.noise_std_z, rng).astype(arr.dtype)


def simulate_observations(
    cube: HsiCube, model: ObservationModel, rng: np.random.Generator | None = None
) -> tuple[HsiCube, HsiCube]:
    """(low-resolution cube, few-band cube) pair for a ground-truth cube."""
    y = spatial_degrade(cube, model, rng)
    z = spectral_degrade(cube, model, rng)
    return (
        HsiCube(y, value_range=cube.value_range, wavelengths_nm=cube.wavelengths_nm,
                name=cube.name),
        HsiCube(z, value_range=cube.value_range, name=cube.name),
    )


def uniform_band_groups(bands: int, n_groups: int) -> np.ndarray:
    """SRF whose rows average contiguous, near-equal groups of bands."""
    if not 1 <= n_groups <= bands:
        raise ValueError(f"need 1 <= n_groups <= bands, got {n_groups} of {bands}")
    edges = np.linspace(0, bands, n_groups + 1).round().astype(int)
    srf = np.zeros((n_groups, bands))
    for g, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        srf[g, lo:hi] = 1.0 / (hi - lo)
    return srf


def load_srf(path, wavelengths_nm=None) -> np.ndarray:
    """Read a comma-separated response table and return the normalized matrix.

    The first row holds band-center wavelengths (nm); each following row is
    one output band's relative response sampled at those wavelengths. When
    ``wavelengths_nm`` is given and differs from the table grid, responses are
    linearly interpolated onto it; the table must cover the requested range.
    Rows are normalized to unit sum.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise SrfFormatError(f"{path}: row {ln} is not numeric: {exc}") from None
    if len(rows) < 2:
        raise SrfFormatError(f"{path}: need a wavelength row plus at least one response row")
    grid = np.asarray(rows[0], dtype=np.float64)
    if np.any(np.diff(grid) <= 0):
        raise SrfFormatError(f"{path}: wavelength row must be strictly increasing")
    table = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != grid.size:
            raise SrfFormatError(
                f"{path}: row {i} has {len(row)} entries, expected {grid.size}"
            )
        table.append(row)
    srf = np.asarray(table, dtype=np.float64)
    if np.any(srf < 0):
        bad = np.argwhere(srf < 0)[0]
        raise SrfFormatError(
            f"{path}: negative response at row {bad[0] + 2}, column {bad[1] + 1}"
        )

    if wavelengths_nm is not None:
        target = np.asarray(wavelengths_nm, dtype=np.float64)
        if target.min() < grid.min() or target.max() > grid.max():
            raise SrfFormatError(
                f"{path}: table covers [{grid.min():g}, {grid.max():g}] nm but the cube "
                f"needs [{target.min():g}, {target.max():g}] nm"
            )
        srf = np.stack([np.interp(target, grid, row) for row in srf])

    sums = srf.sum(axis=1)
    if np.any(sums <= 0):
        row = int(np.nonzero(sums <= 0)[0][0])
        raise SrfFormatError(f"{path}: response row {row + 2} sums to zero on the cube grid")
    return srf / sums[:, None]
