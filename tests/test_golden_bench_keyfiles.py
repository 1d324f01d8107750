"""Byte-identity guard for a bench run given existing key files.

The digests pin both report CSVs of a seeded ``qrsteg bench`` call that
loads a 256-bit key pair written by ``keygen --bits 256 --seed 1``, the
key the clip_256 benchmark workload uses. Bench decodes its attacked
copies with the keystream the sender derived; these digests are what the
receiver's own regeneration gave, so a decode that drifts from it breaks
them.
"""

import hashlib

from qrsteg import synth
from qrsteg.cli import main
from qrsteg.videoio import write_y4m

GOLDEN_BENCH_256 = {
    "report": "605039debb30d3685347ead83bebc0481c5bfee4a902caf895eeb38a03dffc78",
    "attacks": "e875d5c883405da95be03b467ed7d5fde41fb8e4d27a39931725cb1575e0b4ff",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_bench_with_256_bit_key_files_is_byte_identical(tmp_path):
    pub, priv = tmp_path / "pub.json", tmp_path / "priv.json"
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--bits", "256", "--seed", "1"]) == 0
    dataset = tmp_path / "clips"
    dataset.mkdir()
    meta, frames = synth.moving_block_video(44, 30, 2, seed=6)
    with open(dataset / "clip.y4m", "wb") as out:
        write_y4m(meta, frames, out)
    report = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(dataset), "--report", str(report),
                 "--pub", str(pub), "--priv", str(priv), "--seed", "12",
                 "--attacks", "sp:0.01,speckle:0.05", "--attack-seeds", "2"]) == 0
    assert sha256(report) == GOLDEN_BENCH_256["report"]
    assert sha256(tmp_path / "bench.attacks.csv") == GOLDEN_BENCH_256["attacks"]
