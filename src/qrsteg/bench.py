"""Benchmark harness behind the bench command.

Embeds a fixed synthetic payload set into every clip of a directory,
reports per-clip fidelity (capacity, PSNR, MSE, keystream transport
overhead), then measures recovered-payload SSIM under each configured
noise attack, averaged over frames, noise seeds, and clips.

Repeated extraction of the same clip reuses one regenerated keystream
per frame, since noise changes the carried bits, never the keys.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .attacks import AttackSpec, attack_video
from .bitplane import render
from .elgamal import ElGamalPrivate, ElGamalPublic
from .errors import FormatError
from .permute import StegoKey, derive_seed
from .quality import QualityReport, ssim
from .stego import (
    QR_LEVELS,
    FrameCoder,
    StegoConfig,
    clip_cover,
    decrypt_streams,
    embed_video,
    frame_keystreams,
    new_sidecar,
)
from .synth import qr_like_plane
from .videoio import read_y4m

_ATTACK_SALT = 0xA77AC4


@dataclass
class FidelityRow:
    name: str
    frames: int
    luma_pixels: int
    embedded_bits: int
    capacity_bpp: float
    psnr_db: float
    mse: float
    psnr_luma_db: float
    mse_luma: float
    bp_bytes: int
    bp_overhead: float  # keystream transport bytes / payload bytes


@dataclass
class RobustnessRow:
    attack: str
    ssim_by_level: dict[str, float]


@dataclass
class BenchResult:
    fidelity: list[FidelityRow] = field(default_factory=list)
    robustness: list[RobustnessRow] = field(default_factory=list)
    attack_seeds: int = 1


def _load_clip(path: Path, max_frames: int | None):
    with open(path, "rb") as handle:
        meta, frames = read_y4m(handle)
        return meta, list(itertools.islice(frames, max_frames))


def run(
    dataset: Path,
    pub: ElGamalPublic,
    priv: ElGamalPrivate,
    seed: int,
    attack_specs: list[AttackSpec],
    attack_seeds: int = 5,
    max_frames: int | None = None,
    robust_frames: int = 30,
) -> BenchResult:
    if not dataset.is_dir():
        raise FormatError(f"{dataset} is not a directory")
    clips = sorted(dataset.glob("*.y4m"))
    result = BenchResult(attack_seeds=attack_seeds)
    key = StegoKey(seed=seed)
    cfg = StegoConfig(key=key, public=pub, private=priv)

    # attack label -> level -> (sum, count), aggregated over clips and seeds
    sums: dict[str, dict[str, list[float]]] = {}
    coders: dict[tuple[int, int], FrameCoder] = {}  # one per geometry, shared across clips

    def record(label: str, level: str, value: float):
        slot = sums.setdefault(label, {lvl: [0.0, 0] for lvl in QR_LEVELS})[level]
        slot[0] += value
        slot[1] += 1

    for clip in clips:
        meta, frames = _load_clip(clip, max_frames)
        if not frames:
            print(f"bench: skipping empty clip {clip.name}", file=sys.stderr)
            continue
        geometry = (meta.width, meta.height)
        if geometry not in coders:
            coders[geometry] = FrameCoder(key, *geometry)
        coder = coders[geometry]
        qw, qh = coder.qr_shape()
        qr_set = {level: qr_like_plane(qw, qh, seed=i) for i, level in enumerate(QR_LEVELS)}
        references = {level: render(plane) for level, plane in qr_set.items()}

        sidecar = new_sidecar(cfg, coder, meta.frame_rate)
        report = QualityReport()
        stego_frames = []
        for original, stego_frame in zip(
            frames, embed_video(frames, [qr_set], cfg, coder=coder, sidecar=sidecar)
        ):
            report.add_frame(clip_cover(original), stego_frame)
            stego_frames.append(stego_frame)

        count = len(stego_frames)
        bp_bytes = sum(
            (d.bit_length() + 7) // 8
            for rec in sidecar.frames
            for publics in rec.values()
            for d in publics
        )
        payload_bytes = count * 4 * sidecar.plain_len
        result.fidelity.append(
            FidelityRow(
                name=clip.name,
                frames=count,
                luma_pixels=count * meta.width * meta.height,
                embedded_bits=count * 4 * coder.capacity_bits,
                capacity_bpp=(count * 4 * coder.capacity_bits) / (count * meta.width * meta.height),
                psnr_db=report.average_psnr(),
                mse=report.average_mse(),
                psnr_luma_db=report.average_psnr(luma_only=True),
                mse_luma=report.average_mse(luma_only=True),
                bp_bytes=bp_bytes,
                bp_overhead=bp_bytes / payload_bytes if payload_bytes else 0.0,
            )
        )

        subset = stego_frames[: min(robust_frames, count)]
        keys = [
            frame_keystreams(rec, cfg, sidecar.plain_len) for rec in sidecar.frames[: len(subset)]
        ]
        copies = [("none", subset)] + [  # no-attack baseline, then lazily attacked copies
            (spec.label(), attack_video(subset, [spec], derive_seed(seed, _ATTACK_SALT, a, s)))
            for a, spec in enumerate(attack_specs)
            for s in range(attack_seeds)
        ]
        for label, copy in copies:
            for i, frame in enumerate(copy):
                planes = decrypt_streams(coder.extract(frame), keys[i], qw, qh).planes
                for level in QR_LEVELS:
                    record(label, level, ssim(references[level], render(planes[level])))
        print(f"bench: {clip.name}: {count} frames done", file=sys.stderr)

    labels = ["none"] + [spec.label() for spec in attack_specs]
    for label in labels:
        if label in sums:
            result.robustness.append(
                RobustnessRow(
                    attack=label,
                    ssim_by_level={
                        level: sums[label][level][0] / sums[label][level][1]
                        for level in QR_LEVELS
                    },
                )
            )
    return result


def print_tables(result: BenchResult) -> None:
    print("fidelity:")
    header = f"{'clip':24s} {'frames':>6s} {'bits':>12s} {'bpp':>5s} {'psnr':>8s} {'mse':>8s} {'bp-ovh':>7s}"
    print("  " + header)
    for row in result.fidelity:
        psnr_text = "ident" if math.isinf(row.psnr_db) else f"{row.psnr_db:8.3f}"
        print(
            f"  {row.name:24s} {row.frames:6d} {row.embedded_bits:12d} "
            f"{row.capacity_bpp:5.2f} {psnr_text:>8s} {row.mse:8.4f} {row.bp_overhead:7.4f}"
        )
    if result.fidelity:
        avg = sum(r.psnr_db for r in result.fidelity if math.isfinite(r.psnr_db))
        finite = [r for r in result.fidelity if math.isfinite(r.psnr_db)]
        if finite:
            print(f"  average psnr: {avg / len(finite):.3f} dB")
    print("robustness (mean recovered-payload ssim):")
    print("  " + f"{'attack':16s} " + " ".join(f"{lvl:>8s}" for lvl in QR_LEVELS))
    for row in result.robustness:
        values = " ".join(f"{row.ssim_by_level[lvl]:8.4f}" for lvl in QR_LEVELS)
        print(f"  {row.attack:16s} {values}")


def attacks_report_path(report: Path) -> Path:
    return report.with_suffix(".attacks.csv")


def write_reports(result: BenchResult, report: Path) -> None:
    with open(report, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(
            [
                "clip",
                "frames",
                "video_pixels",
                "embedded_bits",
                "capacity_bpp",
                "psnr_db",
                "mse",
                "psnr_luma_db",
                "mse_luma",
                "bp_bytes",
                "bp_overhead",
            ]
        )
        for row in result.fidelity:
            writer.writerow(
                [
                    row.name,
                    row.frames,
                    row.luma_pixels,
                    row.embedded_bits,
                    f"{row.capacity_bpp:.6f}",
                    "identical" if math.isinf(row.psnr_db) else f"{row.psnr_db:.3f}",
                    f"{row.mse:.6f}",
                    "identical" if math.isinf(row.psnr_luma_db) else f"{row.psnr_luma_db:.3f}",
                    f"{row.mse_luma:.6f}",
                    row.bp_bytes,
                    f"{row.bp_overhead:.6f}",
                ]
            )
    with open(attacks_report_path(report), "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["attack"] + [f"ssim_{lvl}" for lvl in QR_LEVELS])
        for row in result.robustness:
            writer.writerow(
                [row.attack] + [f"{row.ssim_by_level[lvl]:.4f}" for lvl in QR_LEVELS]
            )
