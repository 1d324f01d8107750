"""Byte-identity guard: fixed seeds and keys must keep producing the same files.

The digests pin the stego video and sidecar written by the CLI for one
small clip under two seeded keys (the paper's p = 997 key and a fresh
64-bit safe prime), plus the report CSVs of a seeded bench run whose key
the bench generates itself. A change that alters any of them breaks the
wire-format contract in docs/wire_format.md.
"""

import hashlib

import pytest

from qrsteg import bitplane, synth
from qrsteg.cli import main
from qrsteg.videoio import write_pgm, write_y4m

# 36x28 gives 18x14 payload planes: 252 bits, so the last packed byte is partial.
WIDTH, HEIGHT, FRAMES = 36, 28, 3

GOLDEN_EMBED = {
    "paper": {
        "keygen": ["--paper-fidelity", "--seed", "5"],
        "stego": "6bfc34d13856dba2f03a05813dabd6fdc0688a80f3365876014042dc35dcb20f",
        "sidecar": "24cffc03d52c2a169e549c0f66574534ba4527ad20eee1d144cd3635d7142cd0",
    },
    "bits64": {
        "keygen": ["--bits", "64", "--seed", "7"],
        "stego": "513998fc50434c5a7a185aa4af61451e422111b2c0fc1391b190a0fe4cc76fa9",
        "sidecar": "b9db5c41108043800c842d800c864d4174b0253c4ebe182fb4c9e0e8a2462ae8",
    },
}

GOLDEN_BENCH = {
    "report": "3656d202ded6e8c3e2fe15b1517dc4ae36304f3eaa19a314c097c5285127bb5b",
    "attacks": "4530ad6ddcadc0e4ea81664377009bc8c5d76224d2a151c183cd9420f10c8d00",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(tmp_path):
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
    return cover, qr_args


@pytest.mark.parametrize("name", sorted(GOLDEN_EMBED))
def test_embed_output_is_byte_identical(name, tmp_path):
    case = GOLDEN_EMBED[name]
    pub, priv = tmp_path / "pub.json", tmp_path / "priv.json"
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), *case["keygen"]]) == 0
    cover, qr_args = write_inputs(tmp_path)
    stego = tmp_path / "stego.y4m"
    assert main(["embed", "--input", str(cover), "--output", str(stego), *qr_args,
                 "--pub", str(pub), "--seed", "0x5EED"]) == 0
    assert sha256(stego) == case["stego"]
    assert sha256(tmp_path / "stego.y4m.sidecar.json") == case["sidecar"]


def test_bench_with_generated_key_is_byte_identical(tmp_path):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    meta, frames = synth.gradient_video(16, 16, 2, seed=4)
    with open(dataset / "clip.y4m", "wb") as out:
        write_y4m(meta, frames, out)
    report = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(dataset), "--report", str(report), "--bits", "64",
                 "--seed", "9", "--attacks", "sp:0.1,gauss:0:0.01", "--attack-seeds", "2"]) == 0
    assert sha256(report) == GOLDEN_BENCH["report"]
    assert sha256(tmp_path / "bench.attacks.csv") == GOLDEN_BENCH["attacks"]
