"""Command-line surface: keygen, embed, extract, attack, bench.

Every command is deterministic under --seed; all but keygen fall back to
the QRSTEG_SEED environment variable. Failures print one machine-readable
JSON line on stderr and exit with 2 for usage problems, 3 for format
problems, 4 for crypto problems, and 5 for capacity problems.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import re
import secrets
import sys
from pathlib import Path

from . import bench as bench_mod
from . import bitplane, elgamal
from .attacks import SPEC_FORMS, AttackSpec, attack_video
from .errors import EXIT_FORMAT, CryptoError, FormatError, QrstegError, UsageError
from .permute import TAG_BENCH_KEY, TAG_KEYGEN, Splitmix64, StegoKey, derive_seed
from .quality import QualityReport, SsimReference, write_csv
from .stego import (
    LAYOUT,
    QR_LEVELS,
    FrameCoder,
    Sidecar,
    StegoConfig,
    embed_video,
    extract_video,
    new_sidecar,
)
from .videoio import VideoMeta, read_pgm, read_raw_yuv, read_y4m, write_pgm, write_y4m

DEFAULT_BENCH_ATTACKS = "sp:0.01,sp:0.1,gauss:0:0.01,gauss:0:0.1,poisson,speckle:0.05"


def parse_seed_text(text: str) -> int:
    """A 64-bit integer in ASCII decimal or 0x/0X hex, told by its form alone; other text is a passphrase, hashed."""
    if (match := re.fullmatch("(-?)0*([0-9]+)|0[xX]([0-9a-fA-F]+)", text)) is None:
        return StegoKey.from_passphrase(text).seed
    sign, digits, hexits = match.groups()
    # Cut to 21 digits a decimal at or past 2^64 stays there, and int() never meets
    # a text longer than sys.get_int_max_str_digits(); hex has no such limit.
    value = int(hexits, 16) if hexits is not None else int(sign + digits[:21])
    if not 0 <= value < 1 << 64:
        raise UsageError("integer seeds must fit in 64 bits")
    return value


def resolve_seed(args, default: int | None = None) -> int:
    """--seed (even empty), else a non-empty QRSTEG_SEED, else default, which None refuses."""
    text = args.seed if args.seed is not None else os.environ.get("QRSTEG_SEED") or None
    if text is not None:
        return parse_seed_text(text)
    if default is None:
        raise UsageError("this command needs --seed (or the QRSTEG_SEED environment variable)")
    return default


def _load_qr_files(args, size: tuple[int, int] | None = None) -> dict[str, bitplane.QrPlane]:
    """The payload planes named by the --qr-* flags, keyed by level; each must be size when given."""
    planes = {}
    for level in QR_LEVELS:
        path = getattr(args, f"qr_{level.lower()}")
        if path is not None:
            with open(path, "rb") as handle:
                planes[level] = plane = bitplane.load_qr(read_pgm(handle))
            if size and (plane.width, plane.height) != size:
                raise FormatError(f"--qr-{level.lower()} {path} is {plane.width}x{plane.height}, "
                                  f"the sidecar's payload is {size[0]}x{size[1]}")
    return planes


def _load_config(seed: int, pub_path, priv_path=None) -> StegoConfig:
    """The run's StegoConfig from the seed and key files, proved before other input is read."""
    public = elgamal.load_public_key(pub_path)
    private = None if priv_path is None else elgamal.load_private_key(priv_path)
    try:
        return StegoConfig(key=StegoKey(seed=seed), public=public, private=private)
    except CryptoError as exc:  # the public key is proved already, so this is the pair
        raise CryptoError(
            f"private key {priv_path} does not match public key {pub_path} (alpha^x != y mod p)"
        ) from exc


def _sidecar_path(args, video) -> Path:
    """--sidecar, else the stego video's path with ".sidecar.json" appended."""
    return Path(args.sidecar or f"{video}.sidecar.json")


@contextlib.contextmanager
def _open_video(args):
    """Yield (meta, frame iterator) for --input; the file closes when the block ends."""
    path = Path(args.input)
    with open(path, "rb") as handle:
        if path.suffix.lower() == ".y4m":
            yield read_y4m(handle)
        elif args.width is None or args.height is None:
            raise UsageError("raw video input needs --width and --height")
        else:
            yield VideoMeta(width=args.width, height=args.height), read_raw_yuv(handle, args.width, args.height)


@contextlib.contextmanager
def _atomic_outputs():
    """Yield stage(target), which returns a temporary path beside target.

    Staged files move onto their targets only when the block succeeds and
    are deleted on any failure, so a failed command leaves neither partial
    output nor stray temporaries. Staging one file twice is a usage error.
    """
    tag = secrets.token_hex(4)
    real_dir = functools.cache(Path.resolve)  # each target directory is resolved once
    # os.replace replaces the entry (real directory, name): it follows no symlink in the name
    staged: dict[tuple[Path, str], tuple[Path, Path]] = {}  # entry -> (target, temporary)

    def stage(target: Path) -> Path:
        if target.is_dir():  # refused before any target moves: os.replace would fail on it
            raise IsADirectoryError(f"output target is a directory: '{target}'")
        if (entry := (real_dir(target.parent), target.name)) in staged:
            raise UsageError(f"two outputs name the same file: '{target}'")
        staged[entry] = target, target.parent / f".{target.name}.{tag}.tmp"
        return staged[entry][1]

    try:
        yield stage
        for target, temp in staged.values():
            os.replace(temp, target)
    finally:
        for _, temp in staged.values():
            temp.unlink(missing_ok=True)


def _make_key(rng, paper_fidelity: bool, bits: int):
    """The paper's demo parameters, or a fresh safe prime of the given size."""
    if paper_fidelity:
        return elgamal.keygen(elgamal.DEMO_P, elgamal.DEMO_ALPHA, rng)
    return elgamal.generate_key(bits, rng)


def cmd_keygen(args) -> int:
    pub_path = Path(args.pub)
    priv_path = Path(args.priv)
    for path in (pub_path, priv_path):
        if path.exists() and not args.force:
            raise UsageError(f"{path} exists; pass --force to overwrite")
    # Only an explicit --seed: QRSTEG_SEED often holds the stego passphrase.
    seed = None if args.seed is None else parse_seed_text(args.seed)
    rng = Splitmix64(derive_seed(seed, TAG_KEYGEN)) if seed is not None else secrets.SystemRandom()
    with _atomic_outputs() as stage:
        pub_temp, priv_temp = stage(pub_path), stage(priv_path)  # a refused target costs no key search
        pub, priv = _make_key(rng, args.paper_fidelity, args.bits)
        elgamal.save_public_key(pub, pub_temp)
        elgamal.save_private_key(priv, priv_temp)
    print(f"wrote {pub_path} (p: {pub.p.bit_length()} bits, alpha={pub.alpha}, y={pub.y})")
    print(f"wrote {priv_path}")
    return 0


def cmd_embed(args) -> int:
    cfg = _load_config(resolve_seed(args), args.pub)
    qr_set = _load_qr_files(args)
    out_path = Path(args.output)
    sidecar_path = _sidecar_path(args, out_path)
    with _open_video(args) as (meta, frames), _atomic_outputs() as stage:
        out_temp, sidecar_temp = stage(out_path), stage(sidecar_path)  # a refused target costs no frame read
        report_temp = args.report and stage(Path(args.report))
        # The header is untrusted: read a whole frame before sizing the coder to it.
        first = next(frames, None)
        if first is None:
            raise FormatError("input video has no frames")
        coder = FrameCoder(cfg.key, meta.width, meta.height)
        sidecar = new_sidecar(cfg, coder, meta.frame_rate)
        report = QualityReport()
        stego = embed_video(itertools.chain([first], frames), qr_set, cfg, coder, sidecar, report)
        with open(out_temp, "wb") as out:
            count = write_y4m(meta, stego, out)
        sidecar.write(sidecar_temp)
        if report_temp:
            write_csv(report_temp, QualityReport.CSV_HEADER, report.csv_rows())

    print(f"embedded {report.embedded_bits} bits into {count} frames -> {out_path}")
    print(f"capacity: {report.capacity():g} bpp")
    print(
        f"psnr: {report.average_psnr():.3f} dB (luma only {report.average_psnr(luma_only=True):.3f} dB), "
        f"mse: {report.average_mse():.4f}"
    )
    clip_avg = sum(report.clip_mse) / len(report.clip_mse)
    print(f"clip preconditioning mse (cover vs clipped cover): {clip_avg:.6f}")
    print(f"sidecar: {sidecar_path}")
    return 0


def cmd_extract(args) -> int:
    cfg = _load_config(resolve_seed(args), args.pub, args.priv)
    sidecar = Sidecar.read(_sidecar_path(args, args.input))
    if cfg.key.fingerprint() != sidecar.key_fingerprint:
        print(
            "warning: seed fingerprint does not match the sidecar; recovered data will be noise",
            file=sys.stderr,
        )
    originals = {
        level: SsimReference(bitplane.render(plane))
        for level, plane in _load_qr_files(args, (sidecar.qr_width, sidecar.qr_height)).items()
    }

    out_dir = Path(args.output)
    new_dirs = [path for path in (out_dir, *out_dir.parents) if not path.exists()]  # deepest first
    ssim_sums = dict.fromkeys(originals, 0.0)
    count = 0
    try:
        with _open_video(args) as (_, frames), _atomic_outputs() as stage:
            for result in extract_video(frames, cfg, sidecar):
                if count == 0:
                    out_dir.mkdir(parents=True, exist_ok=True)
                for level in QR_LEVELS:
                    image = bitplane.render(result.planes[level])
                    with open(stage(out_dir / f"{count:04d}_{level}.pgm"), "wb") as out:
                        write_pgm(image, out)
                    if level in originals:
                        ssim_sums[level] += originals[level].score(image)
                count += 1
            means = {level: total / count for level, total in ssim_sums.items()} if count else {}
            if args.report and count:
                write_csv(stage(Path(args.report)), ("qr_level", "ssim"),
                          ([level, f"{mean:.6f}"] for level, mean in means.items()))
    except BaseException:
        for path in new_dirs:  # the staged PGMs are gone, so a directory this run made is empty
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    if count < len(sidecar.frames):
        print(
            f"warning: sidecar records {len(sidecar.frames)} frames, video held {count}",
            file=sys.stderr,
        )
    print(f"extracted {count} payload sets into {out_dir}")
    for level, mean in means.items():
        print(f"ssim {level}: {mean:.4f}")
    return 0


def cmd_attack(args) -> int:
    specs = [AttackSpec.parse(text) for text in (args.attack or [])]
    seed = resolve_seed(args, default=0)
    with _open_video(args) as (meta, frames), _atomic_outputs() as stage:
        with open(stage(Path(args.output)), "wb") as out:
            count = write_y4m(meta, attack_video(frames, specs, seed), out)
    labels = ",".join(spec.label() for spec in specs) or "none"
    print(f"wrote {count} frames to {args.output} (attacks: {labels}, seed: {seed})")
    return 0


def cmd_bench(args) -> int:
    seed = resolve_seed(args, default=0)
    specs = [AttackSpec.parse(text) for text in args.attacks.split(",") if text.strip()]
    if specs and args.attack_seeds == 0:
        raise UsageError('--attack-seeds 0 would run none of the requested attacks (use --attacks "" for none)')
    if bool(args.pub) != bool(args.priv):
        raise UsageError("bench needs both --pub and --priv, or neither")
    attacks_report = args.report and Path(args.report).with_suffix(".attacks.csv")
    with _atomic_outputs() as stage:
        reports = args.report and (stage(Path(args.report)), stage(attacks_report))  # before any key search or sweep
        if args.pub:
            cfg = _load_config(seed, args.pub, args.priv)
        else:
            rng = Splitmix64(derive_seed(seed, TAG_BENCH_KEY))
            pub, priv = _make_key(rng, args.paper_fidelity, args.bits)
            cfg = StegoConfig(key=StegoKey(seed=seed), public=pub, private=priv)
        result = bench_mod.run(
            dataset=Path(args.input),
            cfg=cfg,
            attack_specs=specs,
            attack_seeds=args.attack_seeds,
            max_frames=args.max_frames,
            robust_frames=args.robust_frames,
        )
        bench_mod.print_tables(result)
        if reports:
            write_csv(reports[0], bench_mod.FIDELITY_HEADER, bench_mod.fidelity_rows(result))
            write_csv(reports[1], bench_mod.ATTACKS_HEADER, bench_mod.attacks_rows(result))
    if args.report:
        print(f"reports: {args.report} and {attacks_report}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises UsageError for a bad command line, subcommands included, so main prints its JSON line."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def decimal_in(low: float = float("-inf"), high: float = float("inf")):
    """The argparse type of an ASCII decimal flag value in [low, high], read by elgamal.parse_decimals's rule."""

    def decimal(text: str) -> int:  # argparse calls a text parse_decimals refuses an "invalid decimal value"
        if not low <= (value := elgamal.parse_decimals([text])[0]) <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {value}")
        return value

    return decimal


count = decimal_in(0)
key_bits = decimal_in(elgamal.MIN_KEY_BITS, elgamal.MAX_KEY_BITS)


@functools.cache  # argparse measures the terminal on every add_argument: build the tree once
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qrsteg",
        description="Hide encrypted QR payloads in raw YUV video and measure the damage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", help="64-bit integer (decimal or 0x hex) or passphrase (env QRSTEG_SEED as fallback)")

    def add_video(p, what):
        p.add_argument("--input", required=True, help=f"{what} (.y4m, or raw with --width/--height)")
        p.add_argument("--width", type=decimal_in(), help="raw input width")
        p.add_argument("--height", type=decimal_in(), help="raw input height")

    def add_key_choice(p):
        p.add_argument("--bits", type=key_bits, default=256,
                       help=f"safe-prime size, {elgamal.MIN_KEY_BITS} to {elgamal.MAX_KEY_BITS} (default %(default)s)")
        p.add_argument("--paper-fidelity", action="store_true", help="use the paper's small demo parameters "
                       f"(p={elgamal.DEMO_P}, alpha={elgamal.DEMO_ALPHA}) instead of a fresh safe prime")

    def add_qr(p, required, what):
        for row in LAYOUT:
            p.add_argument(f"--qr-{row.level.lower()}", required=required,
                           help=what.format(level=row.level, carrier=row.carrier))

    p = sub.add_parser("keygen", help="write a public/private key file pair")
    p.add_argument("--pub", required=True, help="output path for the public key")
    p.add_argument("--priv", required=True, help="output path for the private key")
    add_key_choice(p)
    p.add_argument("--force", action="store_true", help="overwrite existing files")
    p.add_argument("--seed", help="64-bit integer (decimal or 0x hex) or passphrase (QRSTEG_SEED is not read)")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("embed", help="hide four payload images in a cover video")
    add_video(p, "cover video")
    p.add_argument("--output", required=True, help="stego video path (.y4m)")
    add_qr(p, True, "payload image for the {carrier} carrier (PGM)")
    p.add_argument("--pub", required=True, help="receiver public key file")
    p.add_argument("--sidecar", help="sidecar path (default: <output>.sidecar.json)")
    p.add_argument("--report", help="write per-frame fidelity CSV here")
    add_seed(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover payload images from a stego video")
    add_video(p, "stego video")
    p.add_argument("--output", required=True, help="directory for recovered PGM files")
    p.add_argument("--pub", required=True, help="receiver public key file")
    p.add_argument("--priv", required=True, help="receiver private key file")
    p.add_argument("--sidecar", help="sidecar path (default: <input>.sidecar.json)")
    add_qr(p, False, "original {level} payload for SSIM reporting")
    p.add_argument("--report", help="write the SSIM table CSV here")
    add_seed(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("attack", help="run noise attacks over a video")
    add_video(p, "input video")
    p.add_argument("--output", required=True)
    p.add_argument(
        "--attack",
        action="append",
        help=f"attack spec ({', '.join(SPEC_FORMS)}); repeatable, applied in order",
    )
    add_seed(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="fidelity and robustness tables over a Y4M directory")
    p.add_argument("--input", required=True, help="directory of .y4m cover clips")
    p.add_argument("--report", help="CSV path for the fidelity table (robustness CSV lands beside it)")
    p.add_argument("--attacks", default=DEFAULT_BENCH_ATTACKS, help="comma-separated attack specs")
    p.add_argument("--attack-seeds", type=count, default=5, help="noise seeds per attack (default %(default)s)")
    p.add_argument("--max-frames", type=count, help="cap frames per clip")
    p.add_argument(
        "--robust-frames", type=count, default=30, help="frames per clip for the robustness runs"
    )
    p.add_argument("--pub", help="use an existing public key")
    p.add_argument("--priv", help="use an existing private key")
    add_key_choice(p)
    add_seed(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (QrstegError, OSError) as exc:  # an OSError is an unreadable or unwritable file: exit 3
        name, code = (type(exc).__name__, exc.exit_code) if isinstance(exc, QrstegError) else ("OSError", EXIT_FORMAT)
        print(json.dumps({"error": name, "exit": code, "message": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
