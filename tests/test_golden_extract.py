"""Byte-identity guard for extraction at a partial-byte payload size.

The clip is the one tests/test_golden.py embeds: 36x28 frames carry 18x14
planes, 252 bits per level, so the last keystream byte has four unused
bits. The digests pin every PGM that ``qrsteg extract`` writes for it.
Under the paper's p = 997 key, extraction must also print no warning.

Under a 64-bit and a 256-bit key (p >= 2^32) and under the p = 997 key,
three runs are pinned: a clean one, one whose sidecar has a single public
value replaced by another value in (0, p), and one given the wrong seed. The last two
recover noise, and that noise is pinned too: whatever route the receiver
takes to a keystream, its bytes are those of d^x mod p for every sidecar
public d.
"""

import hashlib
import json

import pytest

from qrsteg import bitplane, synth
from qrsteg.cli import main
from qrsteg.videoio import write_pgm, write_y4m

WIDTH, HEIGHT, FRAMES = 36, 28, 3

GOLDEN_PGMS = "595a5e8101c950dc9322c113d35b2b439ce6214be5e2fa2b2c6cdb2ad196b760"

GOLDEN_PGMS_64 = {
    "clean": GOLDEN_PGMS,  # both keys recover the same planes bit for bit
    "tampered": "fa7c0ff63db590050c365dea37150d7b24613db849fcd379e58b592f54745a5a",
    "wrong_seed": "f6f569b137cd8615678de4bffbd6fdaeae2a5dbcd5a4a6df2be1a59ea4383c15",
}

GOLDEN_PGMS_DEMO = {
    "clean": GOLDEN_PGMS,
    "tampered": "e8e8feb0ac5ceac0bb67c2346ae0ac9ca95cf8a940be155c9652c1520c34afb6",
    "wrong_seed": "db0cc87c843bcc98aeeb847cb716d6029eb3f00a28336e78287ca7f5e42f1265",
}

# A 256-bit value fills a 32-byte level alone: one public value per level.
GOLDEN_PGMS_256 = {
    "clean": GOLDEN_PGMS,
    "tampered": "49a3e073dc3ec5db904332577ab53c8e10493d7543f17a423018358742529f64",
    "wrong_seed": "cb72f1d4d4b86c026ca9da009db3a6c2df370d1d46193fc8b1ad808bc2d8a753",
}

# (test id, keygen arguments, case, digest); the 64-bit ids carry no key prefix.
KEYED_CASES = [
    (case, ["--bits", "64", "--seed", "7"], case, GOLDEN_PGMS_64[case]) for case in sorted(GOLDEN_PGMS_64)
] + [
    (f"256_{case}", ["--bits", "256", "--seed", "7"], case, GOLDEN_PGMS_256[case])
    for case in sorted(GOLDEN_PGMS_256)
] + [
    (f"demo_{case}", ["--paper-fidelity", "--seed", "5"], case, GOLDEN_PGMS_DEMO[case])
    for case in sorted(GOLDEN_PGMS_DEMO)
]


def embed_golden_clip(tmp_path, keygen_args):
    """Embed the golden clip under a fresh key pair: (pub, priv, stego, qr_args)."""
    pub, priv = tmp_path / "pub.json", tmp_path / "priv.json"
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), *keygen_args]) == 0
    meta, frames = synth.gradient_video(WIDTH, HEIGHT, FRAMES, seed=21)
    cover = tmp_path / "cover.y4m"
    with open(cover, "wb") as out:
        write_y4m(meta, frames, out)
    qr_args = []
    for i, level in enumerate("lmqh"):
        path = tmp_path / f"qr_{level}.pgm"
        with open(path, "wb") as out:
            write_pgm(bitplane.render(synth.qr_like_plane(WIDTH // 2, HEIGHT // 2, seed=30 + i)), out)
        qr_args += [f"--qr-{level}", str(path)]
    stego = tmp_path / "stego.y4m"
    assert main(["embed", "--input", str(cover), "--output", str(stego), *qr_args,
                 "--pub", str(pub), "--seed", "0x5EED"]) == 0
    return pub, priv, stego, qr_args


def pgm_digest(out_dir) -> str:
    digest = hashlib.sha256()
    pgms = sorted(out_dir.glob("*.pgm"))
    assert len(pgms) == FRAMES * 4
    for path in pgms:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_extract_of_the_golden_clip_is_byte_identical_and_silent(tmp_path, capsys):
    pub, priv, stego, qr_args = embed_golden_clip(tmp_path, ["--paper-fidelity", "--seed", "5"])
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert main(["extract", "--input", str(stego), "--output", str(out_dir), *qr_args,
                 "--pub", str(pub), "--priv", str(priv), "--seed", "0x5EED"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "ssim L: 1.0000" in captured.out  # bit-exact recovery
    assert pgm_digest(out_dir) == GOLDEN_PGMS


@pytest.mark.parametrize("keygen_args,case,digest", [c[1:] for c in KEYED_CASES], ids=[c[0] for c in KEYED_CASES])
def test_extract_under_a_64_bit_key_is_byte_identical(tmp_path, capsys, keygen_args, case, digest):
    pub, priv, stego, qr_args = embed_golden_clip(tmp_path, keygen_args)
    seed = "0x5EEE" if case == "wrong_seed" else "0x5EED"
    if case == "tampered":
        sidecar = tmp_path / "stego.y4m.sidecar.json"
        doc = json.loads(sidecar.read_text())
        publics = doc["frames"][1]["M"]
        publics[min(2, len(publics) - 1)] = "2"
        sidecar.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert main(["extract", "--input", str(stego), "--output", str(out_dir), *qr_args,
                 "--pub", str(pub), "--priv", str(priv), "--seed", seed]) == 0
    captured = capsys.readouterr()
    exact = [line.split()[1] for line in captured.out.splitlines() if line.endswith(": 1.0000")]
    assert exact == {"clean": ["L:", "M:", "Q:", "H:"], "tampered": ["L:", "Q:", "H:"], "wrong_seed": []}[case]
    assert ("warning: seed fingerprint" in captured.err) == (case == "wrong_seed")
    assert pgm_digest(out_dir) == digest


def test_extract_of_a_short_public_list_writes_no_pgm(tmp_path, capsys):
    # Frame 2's L list loses its last 5 values, so its keystream is short.
    # Every frame's keystreams are derived before output, so frames 0 and 1
    # are not written either.
    pub, priv, stego, qr_args = embed_golden_clip(tmp_path, ["--paper-fidelity", "--seed", "5"])
    sidecar = tmp_path / "stego.y4m.sidecar.json"
    doc = json.loads(sidecar.read_text())
    del doc["frames"][2]["L"][-5:]
    sidecar.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert main(["extract", "--input", str(stego), "--output", str(out_dir), *qr_args,
                 "--pub", str(pub), "--priv", str(priv), "--seed", "0x5EED"]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exit"] == 4
    assert not list(out_dir.glob("*.pgm"))
