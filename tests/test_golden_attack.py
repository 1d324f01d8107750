"""Byte-identity guard for ``qrsteg attack``.

The bench CSVs only pin 4-decimal SSIM averages, which would not notice
one attacked sample moving by one step. These digests pin the whole
attacked Y4M for a seeded synthetic CIF clip under every default bench
attack, plus the edge parameters: a nonzero Gaussian mean with zero
variance, zero speckle variance and full salt & pepper density.
"""

import hashlib

import pytest

from qrsteg import synth
from qrsteg.cli import DEFAULT_BENCH_ATTACKS, main
from qrsteg.videoio import write_y4m

GOLDEN_ATTACK = {
    "sp:0.01": "d7e45f03b5a41429f030a769175de79380c5f331b10eebbe63dd4f7c1e2e1c31",
    "sp:0.1": "4d6640a84b46f155b99b6a9566848137778df19a0922782ef649e2978579a1fe",
    "gauss:0:0.01": "698961e95e8939abb3aee68a11e04246249390e0bbf0fac1aec768ad592064a3",
    "gauss:0:0.1": "2427430f255bf20c0d2749537ff27fcbe351c055501cce438d32a0c66104ed10",
    "poisson": "ef741e348aca4bd0f7579ca69e7e03d72440620766468c95fca0edbe75ad5414",
    "speckle:0.05": "398a0b6d35385670c5a15b3883b2a7b6aba1879d9162c133bd5d6302fca5cc12",
    "gauss:0.3:0": "3d0fd9241d1aac14a234b88c5eea2b56373d9436908210aee5444ee9ad410dd7",
    "speckle:0": "591f393fa73a79d707781f6e3c19b186bfb43e3a37d3d97ca05fa7ffd2448add",
    "sp:1": "790ce603c1d9979f367b6cce8ca9e47519c3c3cd3604b6ef553ce3e5e492f918",
}


def test_every_default_bench_attack_is_pinned():
    assert set(DEFAULT_BENCH_ATTACKS.split(",")) <= set(GOLDEN_ATTACK)


@pytest.fixture(scope="module")
def cif_clip(tmp_path_factory):
    path = tmp_path_factory.mktemp("attack") / "cover.y4m"
    meta, frames = synth.gradient_video(352, 288, 2, seed=13)
    with open(path, "wb") as out:
        write_y4m(meta, frames, out)
    return path


@pytest.mark.parametrize("spec", sorted(GOLDEN_ATTACK))
def test_attack_output_is_byte_identical(spec, cif_clip, tmp_path):
    out = tmp_path / "attacked.y4m"
    assert main(["attack", "--input", str(cif_clip), "--output", str(out),
                 "--attack", spec, "--seed", "3"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ATTACK[spec]
