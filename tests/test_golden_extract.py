"""Byte-identity guard for extraction at a partial-byte payload size.

The clip is the one tests/test_golden.py embeds: 36x28 frames carry 18x14
planes, 252 bits per level, so the last keystream byte has four unused
bits. The digest pins every PGM that ``qrsteg extract`` writes for it
under the paper's p = 997 key, and extraction must print no warning.
"""

import hashlib

from qrsteg import bitplane, synth
from qrsteg.cli import main
from qrsteg.videoio import write_pgm, write_y4m

WIDTH, HEIGHT, FRAMES = 36, 28, 3

GOLDEN_PGMS = "595a5e8101c950dc9322c113d35b2b439ce6214be5e2fa2b2c6cdb2ad196b760"


def test_extract_of_the_golden_clip_is_byte_identical_and_silent(tmp_path, capsys):
    pub, priv = tmp_path / "pub.json", tmp_path / "priv.json"
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--paper-fidelity", "--seed", "5"]) == 0
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
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert main(["extract", "--input", str(stego), "--output", str(out_dir), *qr_args,
                 "--pub", str(pub), "--priv", str(priv), "--seed", "0x5EED"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "ssim L: 1.0000" in captured.out  # bit-exact recovery
    digest = hashlib.sha256()
    pgms = sorted(out_dir.glob("*.pgm"))
    assert len(pgms) == FRAMES * 4
    for path in pgms:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_PGMS
