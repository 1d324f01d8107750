"""Fidelity metrics: embedding capacity, MSE, PSNR, and global SSIM.

MSE runs over all Y, U, and V samples with plain sample-count weighting.
PSNR uses a peak of 255; identical frames get an "identical" sentinel
(infinity) and are excluded from averages. SSIM is the single-window
global form with the usual stabilizers C1 = (0.01*255)^2 and
C2 = (0.03*255)^2, population statistics (divide by N).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QrstegError, ShapeError
from .videoio import FrameYuv420

PEAK = 255.0
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2

IDENTICAL = math.inf  # PSNR sentinel for zero-MSE frames


def _check_same_geometry(a: FrameYuv420, b: FrameYuv420) -> None:
    if a.y.shape != b.y.shape or a.u.shape != b.u.shape or a.v.shape != b.v.shape:
        raise ShapeError("frames differ in geometry")


def mse(a: FrameYuv420, b: FrameYuv420, *, luma_only: bool = False) -> float:
    """Mean squared sample difference across the native planes."""
    _check_same_geometry(a, b)
    planes = (("y",) if luma_only else ("y", "u", "v"))
    total = 0.0
    count = 0
    for name in planes:
        pa = getattr(a, name).astype(np.float64)
        pb = getattr(b, name).astype(np.float64)
        total += float(((pa - pb) ** 2).sum())
        count += pa.size
    return total / count


def psnr_from_mse(value: float) -> float:
    if value < 0:
        raise QrstegError(f"negative MSE {value}")
    if value == 0.0:
        return IDENTICAL
    return 10.0 * math.log10(PEAK * PEAK / value)


def psnr(a: FrameYuv420, b: FrameYuv420, *, luma_only: bool = False) -> float:
    return psnr_from_mse(mse(a, b, luma_only=luma_only))


def ssim(original: np.ndarray, recovered: np.ndarray) -> float:
    """Global single-window SSIM between two grayscale images."""
    if original.shape != recovered.shape:
        raise ShapeError("SSIM inputs differ in shape")
    if original.size < 2:
        raise ShapeError("SSIM needs at least 2 pixels")
    o = original.astype(np.float64)
    e = recovered.astype(np.float64)
    mu_o = o.mean()
    mu_e = e.mean()
    var_o = ((o - mu_o) ** 2).mean()
    var_e = ((e - mu_e) ** 2).mean()
    cov = ((o - mu_o) * (e - mu_e)).mean()
    return float(
        (2 * mu_o * mu_e + SSIM_C1)
        * (2 * cov + SSIM_C2)
        / ((mu_o**2 + mu_e**2 + SSIM_C1) * (var_o + var_e + SSIM_C2))
    )


def capacity_bpp(embedded_bits: int, luma_pixels: int) -> float:
    """Payload bits per cover pixel; pixels are luma samples only."""
    if luma_pixels <= 0:
        raise QrstegError("cover has no pixels")
    return embedded_bits / luma_pixels


@dataclass
class QualityReport:
    """Per-frame fidelity numbers for one embedding run."""

    frame_mse: list[float] = field(default_factory=list)
    frame_psnr: list[float] = field(default_factory=list)
    frame_mse_luma: list[float] = field(default_factory=list)
    frame_psnr_luma: list[float] = field(default_factory=list)
    embedded_bits: int = 0
    luma_pixels: int = 0
    clip_mse: list[float] = field(default_factory=list)  # cover vs clipped cover

    def add_frame(self, reference: FrameYuv420, stego: FrameYuv420) -> None:
        m = mse(reference, stego)
        self.frame_mse.append(m)
        self.frame_psnr.append(psnr_from_mse(m))
        ml = mse(reference, stego, luma_only=True)
        self.frame_mse_luma.append(ml)
        self.frame_psnr_luma.append(psnr_from_mse(ml))

    @staticmethod
    def _finite_mean(values: list[float]) -> float:
        finite = [v for v in values if math.isfinite(v)]
        return sum(finite) / len(finite) if finite else IDENTICAL

    def average_psnr(self, *, luma_only: bool = False) -> float:
        return self._finite_mean(self.frame_psnr_luma if luma_only else self.frame_psnr)

    def average_mse(self, *, luma_only: bool = False) -> float:
        values = self.frame_mse_luma if luma_only else self.frame_mse
        return sum(values) / len(values) if values else 0.0

    def capacity(self) -> float:
        return capacity_bpp(self.embedded_bits, self.luma_pixels)

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream)
        writer.writerow(["frame", "mse", "psnr_db", "mse_luma", "psnr_luma_db"])
        for i, (m, p, ml, pl) in enumerate(
            zip(self.frame_mse, self.frame_psnr, self.frame_mse_luma, self.frame_psnr_luma)
        ):
            writer.writerow([i, f"{m:.6f}", _fmt_psnr(p), f"{ml:.6f}", _fmt_psnr(pl)])
        writer.writerow(
            [
                "average",
                f"{self.average_mse():.6f}",
                _fmt_psnr(self.average_psnr()),
                f"{self.average_mse(luma_only=True):.6f}",
                _fmt_psnr(self.average_psnr(luma_only=True)),
            ]
        )
        if self.luma_pixels:
            writer.writerow(["capacity_bpp", f"{self.capacity():.6f}", "", "", ""])


def _fmt_psnr(value: float) -> str:
    return "identical" if not math.isfinite(value) else f"{value:.3f}"
