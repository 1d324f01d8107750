"""Fidelity metrics: embedding capacity, MSE, PSNR, and global SSIM.

MSE runs over all Y, U, and V samples with plain sample-count weighting.
PSNR uses a peak of 255; identical frames get an "identical" sentinel
(infinity) and are excluded from averages. SSIM is the single-window
global form with the usual stabilizers C1 = (0.01*255)^2 and
C2 = (0.03*255)^2, population statistics (divide by N). Every report CSV
the program writes goes through write_csv.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import QrstegError, ShapeError
from .videoio import FrameYuv420, VideoMeta
from .wavelet import CLIP_HI, CLIP_LO

PEAK = 255.0
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2

IDENTICAL = math.inf  # PSNR sentinel for zero-MSE frames


def _sse(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum of squared differences, in int64: one 256x256 plane can pass int32."""
    return int(np.square(np.subtract(a, b, dtype=np.int32)).sum(dtype=np.int64))


def mse(a: FrameYuv420, b: FrameYuv420) -> float:
    """Mean squared sample difference across the native planes."""
    VideoMeta(a.width, a.height).check_frame(b)
    return sum(map(_sse, (a.y, a.u, a.v), (b.y, b.u, b.v))) / (a.y.size + a.u.size + a.v.size)


def psnr_from_mse(value: float) -> float:
    if value < 0:
        raise QrstegError(f"negative MSE {value}")
    if value == 0.0:
        return IDENTICAL
    return 10.0 * math.log10(PEAK * PEAK / value)


class SsimReference:
    """One original image's SSIM statistics, computed once to score many recovered images.

    score runs the same float operations in the same order as ssim, its one-shot form.
    """

    def __init__(self, original: np.ndarray):
        if original.size < 2:
            raise ShapeError("SSIM needs at least 2 pixels")
        o = original.astype(np.float64)
        self.shape = o.shape
        self.mean = o.mean()
        self.centred = o - self.mean
        self.variance = (self.centred**2).mean()

    def score(self, recovered: np.ndarray) -> float:
        """Global single-window SSIM of recovered against the original."""
        if recovered.shape != self.shape:
            raise ShapeError("SSIM inputs differ in shape")
        e = recovered.astype(np.float64)
        mu_o, mu_e = self.mean, e.mean()
        centred_e = e - mu_e
        var_e = (centred_e**2).mean()
        cov = (self.centred * centred_e).mean()
        return float(
            (2 * mu_o * mu_e + SSIM_C1)
            * (2 * cov + SSIM_C2)
            / ((mu_o**2 + mu_e**2 + SSIM_C1) * (self.variance + var_e + SSIM_C2))
        )


def ssim(original: np.ndarray, recovered: np.ndarray) -> float:
    """Global single-window SSIM between two grayscale images."""
    return SsimReference(original).score(recovered)


def capacity_bpp(embedded_bits: int, luma_pixels: int) -> float:
    """Payload bits per cover pixel; pixels are luma samples only."""
    if luma_pixels <= 0:
        raise QrstegError("cover has no pixels")
    return embedded_bits / luma_pixels


@dataclass
class QualityReport:
    """Per-frame fidelity numbers for one embedding run; PSNR derives from MSE."""

    frame_mse: list[float] = field(default_factory=list)
    frame_mse_luma: list[float] = field(default_factory=list)
    clip_mse: list[float] = field(default_factory=list)  # cover vs clipped cover
    embedded_bits: int = 0
    luma_pixels: int = 0

    def add_frame(self, cover: FrameYuv420, stego: FrameYuv420) -> None:
        """Score a stego frame against its cover as embedded, luma clipped to
        [CLIP_LO, CLIP_HI]; an already clipped cover scores the same."""
        VideoMeta(cover.width, cover.height).check_frame(stego)
        y = np.clip(cover.y, CLIP_LO, CLIP_HI)
        luma = _sse(y, stego.y)
        samples = cover.y.size + cover.u.size + cover.v.size
        self.frame_mse.append((luma + _sse(cover.u, stego.u) + _sse(cover.v, stego.v)) / samples)
        self.frame_mse_luma.append(luma / cover.y.size)
        self.clip_mse.append(_sse(cover.y, y) / samples)
        self.luma_pixels += cover.y.size

    def average_psnr(self, *, luma_only: bool = False) -> float:
        """Mean of the per-frame PSNRs, leaving out identical frames."""
        values = self.frame_mse_luma if luma_only else self.frame_mse
        finite = [p for p in map(psnr_from_mse, values) if math.isfinite(p)]
        return sum(finite) / len(finite) if finite else IDENTICAL

    def average_mse(self, *, luma_only: bool = False) -> float:
        values = self.frame_mse_luma if luma_only else self.frame_mse
        return sum(values) / len(values) if values else 0.0

    def capacity(self) -> float:
        return capacity_bpp(self.embedded_bits, self.luma_pixels)

    CSV_HEADER = ("frame", "mse", "psnr_db", "mse_luma", "psnr_luma_db")

    def csv_rows(self) -> list[list]:
        """The per-frame report under CSV_HEADER: one row a frame, the averages, the capacity."""
        rows = [[i, f"{m:.6f}", fmt_psnr(psnr_from_mse(m)), f"{ml:.6f}", fmt_psnr(psnr_from_mse(ml))]
                for i, (m, ml) in enumerate(zip(self.frame_mse, self.frame_mse_luma))]
        rows.append(
            [
                "average",
                f"{self.average_mse():.6f}",
                fmt_psnr(self.average_psnr()),
                f"{self.average_mse(luma_only=True):.6f}",
                fmt_psnr(self.average_psnr(luma_only=True)),
            ]
        )
        if self.luma_pixels:
            rows.append(["capacity_bpp", f"{self.capacity():.6f}", "", "", ""])
        return rows


def fmt_psnr(value: float) -> str:
    """PSNR as the reports print it: three decimals, or "identical"."""
    return "identical" if not math.isfinite(value) else f"{value:.3f}"


def write_csv(path: str | Path, header, rows) -> None:
    """Write one report CSV: the header row, then rows, in csv.writer's default dialect."""
    with open(path, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
