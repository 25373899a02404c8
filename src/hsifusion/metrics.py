"""Fusion quality metrics and the evaluation report.

Every metric is computed after mapping both cubes to the 8-bit range
[0, 255] with the reference cube's value range; conventions that vary in the
literature (window size, scale factor, reduction) are fixed here and recorded
in the report. One pass over the bands (``_band_pass``) feeds every metric: it
converts one band pair at a time to 8-bit float64 and keeps per-band sums plus
three per-pixel spectral dot products, so memory scales with a band, not the
cube. The report and the public functions finish the same pass; only the two
that read SSIM (``ssim`` and the report) pay for its window sums.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datacube import HsiCube, _atomic_write_text, as_cube_array

SSIM_WINDOW = 8
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


@dataclass
class _BandStats:  # what the pass over the bands leaves for the metrics
    mses: np.ndarray  # per band: mean squared error
    means: np.ndarray  # per band: reference mean
    ssims: np.ndarray | None  # per band: mean local SSIM; None unless asked for and fitting
    dots: np.ndarray  # (3, H, W): r*r, e*e and r*e per pixel, summed over bands


def _band_pass(ref, est, with_ssim: bool = False) -> _BandStats:
    lo, hi = ref.value_range if isinstance(ref, HsiCube) else (0.0, 1.0)
    ref, est = as_cube_array(ref), as_cube_array(est)
    if ref.shape != est.shape:
        raise ValueError(f"cube shapes differ: {ref.shape} vs {est.shape}")
    bands, h, w = ref.shape
    k = SSIM_WINDOW
    scale = 255.0 / (hi - lo)
    s = _BandStats(np.empty(bands), np.empty(bands),
                   np.empty(bands) if with_ssim and h >= k and w >= k else None,
                   np.zeros((3, h, w)))
    for b in range(bands):
        r = (ref[b].astype(np.float64) - lo) * scale
        e = (est[b].astype(np.float64) - lo) * scale
        s.mses[b] = np.square(r - e).mean()
        s.means[b] = r.mean()
        prods = np.stack((r, e, r))  # becomes r*r, e*e, r*e in place
        prods[:2] *= prods[:2]
        prods[2] *= e
        s.dots += prods
        if s.ssims is not None:
            mx, my = _window_means(r, k), _window_means(e, k)
            vx = _window_means(prods[0], k) - mx * mx
            vy = _window_means(prods[1], k) - my * my
            cov = _window_means(prods[2], k) - mx * my
            num = (2 * mx * my + SSIM_C1) * (2 * cov + SSIM_C2)
            den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
            s.ssims[b] = np.mean(num / den)
    return s


def _window_means(img: np.ndarray, k: int) -> np.ndarray:
    # cumulative-sum box filter over all valid k x k windows
    c = np.cumsum(np.cumsum(img, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    sums = c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]
    return sums / (k * k)


def psnr(ref, est) -> float:
    """10*log10(255^2 / MSE) over all voxels; identical cubes give +inf."""
    return _psnr(_band_pass(ref, est))


def _psnr(s: _BandStats) -> float:
    mse = float(np.mean(s.mses))
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
    return _sam(_band_pass(ref, est))


def _sam(s: _BandStats) -> tuple[float, float]:
    r2, e2, dot = s.dots
    valid = (r2 > 0) & (e2 > 0)
    if not np.any(valid):
        return 0.0, 1.0
    dot = dot[valid]
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
    return _ergas(_band_pass(ref, est), scale)


def _ergas(s: _BandStats, scale: int) -> float:
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    ok = s.means != 0
    if not np.all(ok):
        warnings.warn(f"ergas: skipping {int((~ok).sum())} band(s) with zero reference mean",
                      RuntimeWarning)
    if not np.any(ok):
        return 0.0
    return float(100.0 / scale * np.sqrt(np.mean(s.mses[ok] / s.means[ok] ** 2)))


def ssim(ref, est) -> float:
    """Mean local SSIM with a uniform 8x8 window, averaged over bands."""
    return _ssim(_band_pass(ref, est, with_ssim=True))


def _ssim(s: _BandStats) -> float:
    if s.ssims is None:
        k = SSIM_WINDOW
        raise ValueError(f"image {s.dots.shape[1:]} smaller than SSIM window {k}x{k}")
    return float(np.mean(s.ssims))


def band_rmse(ref, est) -> np.ndarray:
    """Per-band RMSE in 8-bit units."""
    return np.sqrt(_band_pass(ref, est).mses)


@dataclass
class FusionReport:
    """Per-image metric rows plus their arithmetic means."""

    scale: int
    per_image: list[dict] = field(default_factory=list)

    def add(self, name: str, ref, est) -> dict:
        s = _band_pass(ref, est, with_ssim=True)  # once for every metric
        angle, skipped = _sam(s)
        row = {
            "name": name,
            "psnr_db": _psnr(s),
            "sam_rad": angle,
            "sam_deg": math.degrees(angle),
            "sam_skipped_fraction": skipped,
            "ergas": _ergas(s, self.scale),
            "ssim": _ssim(s),
            "band_rmse": [float(v) for v in np.sqrt(s.mses)],
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
        return {"scale": self.scale, "per_image": self.per_image, "averages": self.averages}

    def save(self, path) -> None:
        """Write the JSON report plus a per-band RMSE table for plotting; each
        file replaces its previous version only once it is complete."""
        _atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")
        lines = ["band\t" + "\t".join(row["name"] for row in self.per_image) + "\taverage"]
        for b, avg in enumerate(self.averages["band_rmse"]):
            cells = "\t".join(f"{row['band_rmse'][b]:.6g}" for row in self.per_image)
            lines.append(f"{b}\t{cells}\t{avg:.6g}")
        _atomic_write_text(str(path) + ".bands.tsv", "\n".join(lines) + "\n")
