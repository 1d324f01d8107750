"""Acceptance suite: one test per shipping criterion, stated tolerances pinned.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
failure output) and then asserts. Criterion 8's noise rows are split so
every band reports independently; see README for the honest status of
those bands under the frozen noise conventions.
"""

import itertools
import random
import time

import numpy as np
import pytest

from conftest import ScriptedRng
from qrsteg import bitplane, elgamal, synth
from qrsteg.attacks import AttackSpec, attack_video
from qrsteg.cli import main
from qrsteg.elgamal import ElGamalPrivate, ElGamalPublic
from qrsteg.permute import StegoKey, derive_seed, fnv1a64, invert, keyed_permutation
from qrsteg.quality import QualityReport, capacity_bpp, ssim
from qrsteg.stego import (
    QR_LEVELS,
    FrameCoder,
    StegoConfig,
    decrypt_streams,
    embed_video,
    extract_video,
    frame_keystreams,
    get_lsb,
    new_sidecar,
    set_lsb,
)
from qrsteg.videoio import write_pgm, write_y4m
from qrsteg.wavelet import fwd_haar_int, inv_haar_int

PUB = ElGamalPublic(p=997, alpha=809, y=12)
PRIV = ElGamalPrivate(x=420)
K_SEQUENCE = [87, 578, 734, 55, 376, 622]
SECRET = bytes([12, 66, 23, 204, 138, 76, 0, 94, 51])
CIPHER = bytes([16, 65, 252, 205, 148, 190, 2, 15, 75])


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert passed, f"{name}{suffix}"


def test_c01_stream_cipher_vectors():
    start = time.perf_counter()
    bundle = elgamal.stream_encrypt(SECRET, PUB, ScriptedRng(K_SEQUENCE))
    plain = elgamal.stream_decrypt(bundle, PUB.p, PRIV)
    elapsed = time.perf_counter() - start
    ok = bundle.ciphertext == CIPHER and plain == SECRET and elapsed < 0.001
    report("C1 stream-cipher demo vectors", ok, f"{elapsed * 1e6:.0f} us")


def test_c02_keystream_vector():
    ks = elgamal.keystream(PUB, 9, ScriptedRng(K_SEQUENCE))
    ok = list(ks.sender_publics) == [320, 619, 122, 273, 171, 918] and list(ks.key_bytes) == [
        28, 3, 235, 1, 30, 242, 2, 81, 120,
    ]
    report("C2 keystream vector", ok)


def test_c03_classic_scheme_exhaustive():
    tiny_pub = ElGamalPublic(p=23, alpha=5, y=8)
    tiny_priv = ElGamalPrivate(x=6)
    start = time.perf_counter()
    failures = 0
    for m in range(23):
        for k in range(2, 21):
            d, z = elgamal.classic_encrypt(m, tiny_pub, k)
            if elgamal.classic_decrypt(d, z, tiny_pub, tiny_priv) != m:
                failures += 1
    elapsed = time.perf_counter() - start
    report("C3 classic-scheme exhaustive inversion", failures == 0 and elapsed < 1.0,
           f"437 cases in {elapsed * 1e3:.1f} ms")


def test_c04_wavelet_reversibility():
    rng = np.random.default_rng(0xC4)
    failures = 0
    for _ in range(10_000):
        h = 2 * int(rng.integers(1, 21))
        w = 2 * int(rng.integers(1, 21))
        plane = rng.integers(0, 256, size=(h, w))
        if not (inv_haar_int(fwd_haar_int(plane)) == plane).all():
            failures += 1
    corner_values = (0, 1, 127, 128, 254, 255)
    for quad in itertools.product(corner_values, repeat=4):
        plane = np.array(quad).reshape(2, 2)
        if not (inv_haar_int(fwd_haar_int(plane)) == plane).all():
            failures += 1
    for value in corner_values:  # saturated larger planes
        plane = np.full((16, 16), value)
        if not (inv_haar_int(fwd_haar_int(plane)) == plane).all():
            failures += 1
    report("C4 wavelet reversibility", failures == 0, "10k random + structured cases")


def _roundtrip_ssim(width, height, frames, seed):
    cfg = StegoConfig(key=StegoKey(seed=seed), public=PUB, private=PRIV)
    _, cover = synth.gradient_video(width, height, frames, seed=seed)
    qw, qh = width // 2, height // 2
    qr_set = {lvl: synth.qr_like_plane(qw, qh, seed=60 + i) for i, lvl in enumerate(QR_LEVELS)}
    coder = FrameCoder(cfg.key, width, height)
    sidecar = new_sidecar(cfg, coder)
    stego = list(embed_video(cover, qr_set, cfg, coder, sidecar, QualityReport()))
    worst = 1.0
    for result in extract_video(stego, cfg, sidecar):
        for lvl in QR_LEVELS:
            value = ssim(bitplane.render(qr_set[lvl]), bitplane.render(result.planes[lvl]))
            worst = min(worst, value)
    return worst, len(stego)


def test_c05_lossless_channel():
    worst_small, n_small = _roundtrip_ssim(64, 64, 10, seed=0x55AA)
    worst_cif, n_cif = _roundtrip_ssim(352, 288, 2, seed=0x77EE)
    ok = worst_small == 1.0 and worst_cif == 1.0 and n_small == 10 and n_cif == 2
    report("C5 lossless channel (64x64x10 and CIF)", ok,
           f"min ssim {min(worst_small, worst_cif):.4f}")


def test_c06_capacity_identity():
    ok = True
    for w, h in ((64, 64), (352, 288), (176, 80)):
        coder = FrameCoder(StegoKey(seed=1), w, h)
        ok = ok and capacity_bpp(4 * coder.capacity_bits, w * h) == 1.0
    cif = FrameCoder(StegoKey(seed=1), 352, 288)
    per_frame = 4 * cif.capacity_bits
    total = 300 * per_frame
    ok = ok and per_frame == 101_376 and total == 30_412_800
    report("C6 capacity identity", ok, f"300 CIF frames -> {total} bits")


def test_c07_imperceptibility_band():
    cfg = StegoConfig(key=StegoKey(seed=0xF00D), public=PUB, private=PRIV)
    qr_set = {
        lvl: synth.qr_like_plane(176, 144, seed=90 + i) for i, lvl in enumerate(QR_LEVELS)
    }
    coder = FrameCoder(cfg.key, 352, 288)
    avg_psnrs = []
    all_mse = []
    ok = True
    for clip_seed in (1, 2, 3):
        start = time.perf_counter()
        _, cover = synth.gradient_video(352, 288, 6, seed=clip_seed)
        quality = QualityReport()
        list(embed_video(cover, qr_set, cfg, coder, new_sidecar(cfg, coder), quality))
        all_mse += quality.frame_mse
        ok = ok and len(quality.frame_mse) == 6 and all(0.30 <= m <= 0.55 for m in quality.frame_mse)
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 120.0
        avg_psnrs.append(quality.average_psnr())
    ok = ok and all(50.0 <= p <= 54.0 for p in avg_psnrs)
    report(
        "C7 imperceptibility band",
        ok,
        f"psnr {min(avg_psnrs):.3f}..{max(avg_psnrs):.3f} dB, "
        f"mse {min(all_mse):.3f}..{max(all_mse):.3f}",
    )


ROBUSTNESS_ROWS = [
    ("sp:0.01", 0.93),
    ("sp:0.1", 0.75),
    ("gauss:0:0.01", 0.88),
    ("gauss:0:0.1", 0.68),
    ("poisson", 0.97),
    ("speckle:0.05", 0.90),
]


@pytest.fixture(scope="module")
def robustness_setup():
    cfg = StegoConfig(key=StegoKey(seed=0xB0B), public=PUB, private=PRIV)
    width = height = 64
    _, cover = synth.gradient_video(width, height, 4, seed=8)
    qw, qh = width // 2, height // 2
    qr_set = {lvl: synth.qr_like_plane(qw, qh, seed=70 + i) for i, lvl in enumerate(QR_LEVELS)}
    coder = FrameCoder(cfg.key, width, height)
    sidecar = new_sidecar(cfg, coder)
    stego = list(embed_video(cover, qr_set, cfg, coder, sidecar, QualityReport()))
    keys = frame_keystreams(sidecar.frames, cfg, sidecar.plain_len)
    references = {lvl: bitplane.render(plane) for lvl, plane in qr_set.items()}
    return coder, stego, keys, references, (qw, qh)


@pytest.mark.parametrize("spec_text,threshold", ROBUSTNESS_ROWS)
def test_c08_robustness_band(spec_text, threshold, robustness_setup):
    coder, stego, keys, references, (qw, qh) = robustness_setup
    spec = AttackSpec.parse(spec_text)
    sums = {lvl: 0.0 for lvl in QR_LEVELS}
    count = 0
    spec_tag = fnv1a64(spec_text.encode())
    for seed_index in range(5):
        noise_seed = derive_seed(0xACCE97, seed_index, spec_tag)
        for i, frame in enumerate(attack_video(stego, [spec], noise_seed)):
            planes = decrypt_streams(coder.extract(frame), keys[i], qw, qh).planes
            for lvl in QR_LEVELS:
                sums[lvl] += ssim(references[lvl], bitplane.render(planes[lvl]))
        count += len(stego)
    means = {lvl: sums[lvl] / count for lvl in QR_LEVELS}
    worst = min(means.values())
    detail = " ".join(f"{lvl}={means[lvl]:.3f}" for lvl in QR_LEVELS)
    report(f"C8 robustness {spec_text} >= {threshold}", worst >= threshold, detail)


def test_c09_cli_determinism(tmp_path):
    meta, frames = synth.gradient_video(32, 32, 3, seed=12)
    cover = tmp_path / "cover.y4m"
    with open(cover, "wb") as out:
        write_y4m(meta, frames, out)
    qr_paths = []
    for i, lvl in enumerate(QR_LEVELS):
        path = tmp_path / f"{lvl}.pgm"
        with open(path, "wb") as out:
            write_pgm(bitplane.render(synth.qr_like_plane(16, 16, seed=i)), out)
        qr_paths.append(str(path))
    pub = tmp_path / "pub.json"
    priv = tmp_path / "priv.json"
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--paper-fidelity",
                 "--seed", "5"]) == 0
    outputs = []
    for name in ("one", "two"):
        out_path = tmp_path / f"{name}.y4m"
        code = main([
            "embed", "--input", str(cover), "--output", str(out_path),
            "--qr-l", qr_paths[0], "--qr-m", qr_paths[1],
            "--qr-q", qr_paths[2], "--qr-h", qr_paths[3],
            "--pub", str(pub), "--seed", "424242",
        ])
        assert code == 0
        outputs.append(
            (out_path.read_bytes(), (tmp_path / f"{name}.y4m.sidecar.json").read_bytes())
        )
    ok = outputs[0] == outputs[1]
    report("C9 embed determinism under --seed", ok)


def test_c10_property_suites():
    rng = random.Random(0x10)
    ok = True
    for _ in range(10_000):  # XOR involution
        n = rng.randrange(0, 48)
        a, k = rng.randbytes(n), rng.randbytes(n)
        ok = ok and elgamal.xor_bytes(elgamal.xor_bytes(a, k), k) == a

    arr_rng = np.random.default_rng(0x10)
    for _ in range(1_000):  # pack/unpack inverse
        w = int(arr_rng.integers(1, 50))
        h = int(arr_rng.integers(1, 50))
        bits = arr_rng.integers(0, 2, size=(h, w)).astype(np.uint8)
        plane = bitplane.QrPlane(width=w, height=h, bits=bits)
        back = bitplane.unpack(bitplane.pack(plane), w, h)
        ok = ok and np.array_equal(back.bits, bits)

    for trial in range(50):  # permutation bijectivity + inversion
        key = StegoKey(seed=int(arr_rng.integers(0, 2**63)))
        n = int(arr_rng.integers(0, 3000))
        perm = keyed_permutation(key, trial, n)
        ok = ok and sorted(perm.tolist()) == list(range(n))
        ok = ok and invert(perm)[perm].tolist() == list(range(n))

    for v in range(-512, 513):  # LSB ops exhaustive scan
        for b in (0, 1):
            w = set_lsb(v, b)
            ok = ok and get_lsb(w) == b and abs(w - v) <= 1
    report("C10 property suites", ok)
