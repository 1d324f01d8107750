"""Benchmark harness behind the bench command.

Embeds a fixed synthetic payload set into every clip of a directory,
reports per-clip fidelity (capacity, PSNR, MSE, and the sidecar's bytes
on disk over the payload bytes), then measures recovered-payload SSIM
under each configured noise attack, averaged over frames, noise seeds,
and clips.

Every clean and attacked copy of a frame is decoded with the keystream
the sender derived while embedding it: the keystream is a function of
the key, seed, frame and level, and noise changes the carried bits,
never the keys. So bench never regenerates a keystream from the sidecar;
that receiver path is what the extract command runs. The private exponent
then takes no part in a decode, so run takes a StegoConfig, which proved
it against the public key when it was built, and refuses one without it.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .attacks import AttackSpec, attack_video
from .bitplane import QrPlane, render
from .errors import CryptoError, FormatError
from .permute import derive_seed
from .quality import QualityReport, SsimReference, fmt_psnr
from .stego import (
    QR_LEVELS,
    FrameCoder,
    StegoConfig,
    decrypt_streams,
    embed_video,
    new_sidecar,
)
from .synth import qr_like_plane
from .videoio import read_y4m

_ATTACK_SALT = 0xA77AC4


@dataclass
class FidelityRow:
    name: str
    report: QualityReport
    bp_bytes: int  # the sidecar as Sidecar.write stores it: the key transport on disk
    bp_overhead: float  # sidecar bytes / payload bytes


@dataclass
class BenchResult:
    fidelity: list[FidelityRow] = field(default_factory=list)
    # attack label -> level -> mean recovered-payload SSIM, in the order labels are first decoded
    robustness: dict[str, dict[str, float]] = field(default_factory=dict)


def run(
    dataset: Path,
    cfg: StegoConfig,
    attack_specs: list[AttackSpec],
    *,
    attack_seeds: int,
    max_frames: int | None,
    robust_frames: int,
) -> BenchResult:
    if cfg.private is None:
        raise CryptoError("bench requires the private key")
    if not dataset.is_dir():
        raise FormatError(f"{dataset} is not a directory")
    clips = sorted(dataset.glob("*.y4m"))
    result = BenchResult()

    # attack label -> level -> SSIM sum over clips and seeds, in the order labels are first decoded
    sums: defaultdict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(QR_LEVELS, 0.0))
    decodes: Counter[str] = Counter()  # frames decoded per attack label
    # one coder, synthetic payload set and set of SSIM references per geometry, shared across clips
    shared: dict[tuple[int, int], tuple[FrameCoder, dict[str, QrPlane], dict[str, SsimReference]]] = {}

    for clip in clips:
        with open(clip, "rb") as handle:
            meta, frames = read_y4m(handle)
            frames = list(itertools.islice(frames, max_frames))
        if not frames:
            print(f"bench: skipping empty clip {clip.name}", file=sys.stderr)
            continue
        geometry = (meta.width, meta.height)
        if geometry not in shared:
            coder = FrameCoder(cfg.key, *geometry)
            qr_set = {level: qr_like_plane(*coder.qr_shape(), seed=i) for i, level in enumerate(QR_LEVELS)}
            shared[geometry] = coder, qr_set, {level: SsimReference(render(plane)) for level, plane in qr_set.items()}
        coder, qr_set, references = shared[geometry]
        qw, qh = coder.qr_shape()

        sidecar = new_sidecar(cfg, coder, meta.frame_rate)
        report = QualityReport()
        keys: list[dict[str, bytes]] = []  # the sender's keystreams, one dict per frame
        stego = embed_video(frames, qr_set, cfg, coder, sidecar, report, keys)
        # every frame is embedded and counts for fidelity; only the first robust_frames are decoded
        subset = [frame for i, frame in enumerate(stego) if i < robust_frames]
        del keys[robust_frames:]
        count = len(sidecar.frames)
        bp_bytes = len(sidecar.to_json()) + 1  # ASCII text and the newline Sidecar.write adds
        payload_bytes = count * len(QR_LEVELS) * sidecar.plain_len
        result.fidelity.append(FidelityRow(clip.name, report, bp_bytes, bp_bytes / payload_bytes))

        copies = [("none", subset)] + [  # no-attack baseline, then lazily attacked copies
            (spec.label(), attack_video(subset, [spec], derive_seed(cfg.key.seed, _ATTACK_SALT, a, s)))
            for a, spec in enumerate(attack_specs)
            for s in range(attack_seeds)
        ]
        for label, copy in copies:
            for i, frame in enumerate(copy):
                planes = decrypt_streams(coder.extract(frame), keys[i], qw, qh).planes
                for level in QR_LEVELS:
                    sums[label][level] += references[level].score(render(planes[level]))
                decodes[label] += 1
        print(f"bench: {clip.name}: {count} frames done", file=sys.stderr)

    result.robustness = {
        label: {level: total / decodes[label] for level, total in by_level.items()}
        for label, by_level in sums.items()
    }
    return result


def print_tables(result: BenchResult) -> None:
    print("fidelity:")
    header = f"{'clip':24s} {'frames':>6s} {'bits':>12s} {'bpp':>5s} {'psnr':>8s} {'mse':>8s} {'bp-ovh':>7s}"
    print("  " + header)
    for row in result.fidelity:
        r = row.report
        print(
            f"  {row.name:24s} {len(r.frame_mse):6d} {r.embedded_bits:12d} {r.capacity():5.2f} "
            f"{fmt_psnr(r.average_psnr()):>8s} {r.average_mse():8.4f} {row.bp_overhead:7.4f}"
        )
    finite = [p for p in (row.report.average_psnr() for row in result.fidelity) if math.isfinite(p)]
    if finite:
        print(f"  average psnr: {sum(finite) / len(finite):.3f} dB")
    print("robustness (mean recovered-payload ssim):")
    print("  " + f"{'attack':16s} " + " ".join(f"{lvl:>8s}" for lvl in QR_LEVELS))
    for attack, ssim in result.robustness.items():
        values = " ".join(f"{ssim[lvl]:8.4f}" for lvl in QR_LEVELS)
        print(f"  {attack:16s} {values}")


FIDELITY_HEADER = ("clip", "frames", "video_pixels", "embedded_bits", "capacity_bpp", "psnr_db", "mse",
                   "psnr_luma_db", "mse_luma", "bp_bytes", "bp_overhead")
ATTACKS_HEADER = ("attack", *(f"ssim_{lvl}" for lvl in QR_LEVELS))


def fidelity_rows(result: BenchResult) -> list[list]:
    """The fidelity table under FIDELITY_HEADER, one row a clip."""
    return [
        [
            row.name,
            len(row.report.frame_mse),
            row.report.luma_pixels,
            row.report.embedded_bits,
            f"{row.report.capacity():.6f}",
            fmt_psnr(row.report.average_psnr()),
            f"{row.report.average_mse():.6f}",
            fmt_psnr(row.report.average_psnr(luma_only=True)),
            f"{row.report.average_mse(luma_only=True):.6f}",
            row.bp_bytes,
            f"{row.bp_overhead:.6f}",
        ]
        for row in result.fidelity
    ]


def attacks_rows(result: BenchResult) -> list[list]:
    """The robustness table under ATTACKS_HEADER, one row an attack label."""
    return [[attack] + [f"{ssim[lvl]:.4f}" for lvl in QR_LEVELS] for attack, ssim in result.robustness.items()]
