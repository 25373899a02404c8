"""Fusion quality metrics and the evaluation report.

Every metric is computed after mapping both cubes to the 8-bit range
[0, 255] with the reference cube's value range; conventions that vary in the
literature (window size, scale factor, reduction) are fixed here and recorded
in the report.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datacube import HsiCube, as_cube_array

SSIM_WINDOW = 8
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


def _to_8bit_pair(ref, est) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = ref.value_range if isinstance(ref, HsiCube) else (0.0, 1.0)
    r = as_cube_array(ref).astype(np.float64)
    e = as_cube_array(est).astype(np.float64)
    if r.shape != e.shape:
        raise ValueError(f"cube shapes differ: {r.shape} vs {e.shape}")
    scale = 255.0 / (hi - lo)
    return (r - lo) * scale, (e - lo) * scale


def psnr(ref, est) -> float:
    """10*log10(255^2 / MSE) over all voxels; identical cubes give +inf."""
    return _psnr(*_to_8bit_pair(ref, est))


def _psnr(r: np.ndarray, e: np.ndarray) -> float:
    mse = float(np.mean((r - e) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def sam(ref, est) -> float:
    """Mean per-pixel spectral angle in radians.

    Pixels where either spectrum has zero norm are skipped (the angle is
    undefined there); the skipped fraction is available via ``sam_detailed``.
    """
    return sam_detailed(ref, est)[0]


def sam_detailed(ref, est) -> tuple[float, float]:
    return _sam(*_to_8bit_pair(ref, est))


def _sam(r: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    bands = r.shape[0]
    rf = r.reshape(bands, -1)
    ef = e.reshape(bands, -1)
    r2 = np.sum(rf * rf, axis=0)
    e2 = np.sum(ef * ef, axis=0)
    valid = (r2 > 0) & (e2 > 0)
    if not np.any(valid):
        return 0.0, 1.0
    dot = np.sum(rf[:, valid] * ef[:, valid], axis=0)
    # signed cos^2 form: identical spectra give dot^2 == r2*e2 bitwise, so the
    # angle is exactly zero rather than arccos(1 - epsilon)
    cos2 = np.clip(dot * np.abs(dot) / (r2[valid] * e2[valid]), -1.0, 1.0)
    angles = np.arccos(np.sign(cos2) * np.sqrt(np.abs(cos2)))
    skipped = 1.0 - valid.mean()
    return float(angles.mean()), float(skipped)


def ergas(ref, est, scale: int) -> float:
    """(100/scale) * sqrt(mean over bands of (RMSE_b / mean_b)^2).

    Bands whose reference mean is zero are excluded with a warning.
    """
    r, e = _to_8bit_pair(ref, est)
    return _ergas(r, _band_mses(r, e), scale)


def _band_mses(r: np.ndarray, e: np.ndarray) -> np.ndarray:
    return ((r - e) ** 2).reshape(r.shape[0], -1).mean(axis=1)


def _ergas(r: np.ndarray, mses: np.ndarray, scale: int) -> float:
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    means = r.reshape(r.shape[0], -1).mean(axis=1)
    ok = means != 0
    if not np.all(ok):
        warnings.warn(
            f"ergas: skipping {int((~ok).sum())} band(s) with zero reference mean",
            RuntimeWarning,
        )
    if not np.any(ok):
        return 0.0
    return float(100.0 / scale * np.sqrt(np.mean(mses[ok] / means[ok] ** 2)))


def _window_means(img: np.ndarray, k: int) -> np.ndarray:
    # cumulative-sum box filter over all valid k x k windows
    c = np.cumsum(np.cumsum(img, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    sums = c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]
    return sums / (k * k)


def ssim(ref, est) -> float:
    """Mean local SSIM with a uniform 8x8 window, averaged over bands."""
    return _ssim(*_to_8bit_pair(ref, est))


def _ssim(r: np.ndarray, e: np.ndarray) -> float:
    k = SSIM_WINDOW
    if r.shape[1] < k or r.shape[2] < k:
        raise ValueError(f"image {r.shape[1:]} smaller than SSIM window {k}x{k}")
    vals = []
    for band in range(r.shape[0]):
        x, y = r[band], e[band]
        mx = _window_means(x, k)
        my = _window_means(y, k)
        vx = _window_means(x * x, k) - mx * mx
        vy = _window_means(y * y, k) - my * my
        cov = _window_means(x * y, k) - mx * my
        num = (2 * mx * my + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def band_rmse(ref, est) -> np.ndarray:
    """Per-band RMSE in 8-bit units."""
    return np.sqrt(_band_mses(*_to_8bit_pair(ref, est)))


@dataclass
class FusionReport:
    """Per-image metric rows plus their arithmetic means."""

    scale: int
    per_image: list[dict] = field(default_factory=list)

    def add(self, name: str, ref, est) -> dict:
        r, e = _to_8bit_pair(ref, est)  # once for every metric
        mses = _band_mses(r, e)
        angle, skipped = _sam(r, e)
        row = {
            "name": name,
            "psnr_db": _psnr(r, e),
            "sam_rad": angle,
            "sam_deg": math.degrees(angle),
            "sam_skipped_fraction": skipped,
            "ergas": _ergas(r, mses, self.scale),
            "ssim": _ssim(r, e),
            "band_rmse": [float(v) for v in np.sqrt(mses)],
        }
        self.per_image.append(row)
        return row

    @property
    def averages(self) -> dict:
        keys = ("psnr_db", "sam_rad", "sam_deg", "ergas", "ssim")
        n = len(self.per_image)
        if n == 0:
            return {k: math.nan for k in keys}
        out = {k: sum(row[k] for row in self.per_image) / n for k in keys}
        bands = len(self.per_image[0]["band_rmse"])
        out["band_rmse"] = [
            sum(row["band_rmse"][b] for row in self.per_image) / n for b in range(bands)
        ]
        return out

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "per_image": self.per_image,
            "averages": self.averages,
        }

    def save(self, path) -> None:
        """Write the JSON report plus a per-band RMSE table for plotting."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        table = str(path) + ".bands.tsv"
        with open(table, "w", encoding="utf-8") as fh:
            names = [row["name"] for row in self.per_image]
            fh.write("band\t" + "\t".join(names) + "\taverage\n")
            avg = self.averages["band_rmse"]
            bands = len(avg)
            for b in range(bands):
                cells = [f"{row['band_rmse'][b]:.6g}" for row in self.per_image]
                fh.write(f"{b}\t" + "\t".join(cells) + f"\t{avg[b]:.6g}\n")
