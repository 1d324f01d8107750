import csv
import hashlib
import json
import os
import re
import stat
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qrsteg import bench, bitplane, cli, elgamal, synth
from qrsteg.attacks import AttackSpec
from qrsteg.cli import main, parse_seed_text
from qrsteg.errors import CryptoError, FormatError
from qrsteg.permute import StegoKey
from qrsteg.stego import FrameCoder, Sidecar, StegoConfig, frame_keystreams
from qrsteg.videoio import VideoMeta, read_pgm, read_y4m, write_pgm, write_y4m


def write_clip(path, w=32, h=32, frames=3, seed=0):
    meta, fr = synth.gradient_video(w, h, frames, seed=seed)
    with open(path, "wb") as out:
        write_y4m(meta, fr, out)
    return meta, fr


def write_qr(path, w=16, h=16, seed=0):
    plane = synth.qr_like_plane(w, h, seed=seed)
    with open(path, "wb") as out:
        write_pgm(bitplane.render(plane), out)
    return plane


def write_unproved_public_key(path, p):
    """The demo key's file with another p, as text: save_public_key refuses a key that fails validate."""
    path.write_text(json.dumps({"kind": "elgamal-public", "p": str(p), "alpha": "809", "y": "12"}))


@pytest.fixture
def keys(tmp_path):
    # The paper's demo key with private exponent 420: y = 809^420 mod 997 = 12.
    pub = tmp_path / "pub.json"
    priv = tmp_path / "priv.json"
    elgamal.save_public_key(elgamal.ElGamalPublic(p=997, alpha=809, y=12), pub)
    elgamal.save_private_key(elgamal.ElGamalPrivate(x=420), priv)
    return pub, priv


@pytest.fixture
def workspace(tmp_path, keys):
    pub, priv = keys
    cover = tmp_path / "cover.y4m"
    write_clip(cover, seed=3)
    qr_paths = {}
    planes = {}
    for i, level in enumerate("LMQH"):
        path = tmp_path / f"qr_{level}.pgm"
        planes[level] = write_qr(path, seed=40 + i)
        qr_paths[level] = path
    return {
        "tmp": tmp_path,
        "pub": pub,
        "priv": priv,
        "cover": cover,
        "qr_paths": qr_paths,
        "planes": planes,
    }


def embed_args(ws, output, seed="1234", extra=()):
    return [
        "embed",
        "--input", str(ws["cover"]),
        "--output", str(output),
        "--qr-l", str(ws["qr_paths"]["L"]),
        "--qr-m", str(ws["qr_paths"]["M"]),
        "--qr-q", str(ws["qr_paths"]["Q"]),
        "--qr-h", str(ws["qr_paths"]["H"]),
        "--pub", str(ws["pub"]),
        "--seed", seed,
        *extra,
    ]


def test_parse_seed_text_forms():
    assert parse_seed_text("42") == 42
    assert parse_seed_text("0x10") == 16
    assert parse_seed_text("hunter2") == parse_seed_text("hunter2")
    assert parse_seed_text("hunter2") != parse_seed_text("hunter3")


def test_keygen_paper_fidelity_fixed_exponent(tmp_path):
    # --seed fixes the drawn exponent; --paper-fidelity fixes p and alpha.
    xs = []
    for name in ("a", "b"):
        pub_path = tmp_path / f"{name}.pub"
        priv_path = tmp_path / f"{name}.priv"
        assert main(["keygen", "--pub", str(pub_path), "--priv", str(priv_path),
                     "--paper-fidelity", "--seed", "3"]) == 0
        pub = elgamal.load_public_key(pub_path)
        x = elgamal.load_private_key(priv_path).x
        assert (pub.p, pub.alpha) == (997, 809)
        assert pub.y == pow(809, x, 997)
        xs.append(x)
    assert xs[0] == xs[1]


def test_keygen_refuses_overwrite(keys, tmp_path):
    pub, priv = keys
    code = main(["keygen", "--pub", str(pub), "--priv", str(priv), "--paper-fidelity"])
    assert code == 2
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--paper-fidelity",
                 "--force"]) == 0


def test_keygen_random_runs_differ(tmp_path):
    xs = []
    for name in ("a", "b", "c"):
        pub = tmp_path / f"{name}.pub"
        priv = tmp_path / f"{name}.priv"
        assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--paper-fidelity"]) == 0
        xs.append(elgamal.load_private_key(priv).x)
    assert len(set(xs)) > 1


def test_keygen_ignores_the_seed_environment_variable(tmp_path, monkeypatch):
    # QRSTEG_SEED often holds the stego passphrase; it must not derive a private key.
    monkeypatch.setenv("QRSTEG_SEED", "swordfish")
    xs = []
    for name in ("a", "b"):
        priv = tmp_path / f"{name}.priv"
        assert main(["keygen", "--pub", str(tmp_path / f"{name}.pub"), "--priv", str(priv),
                     "--bits", "64"]) == 0
        xs.append(elgamal.load_private_key(priv).x)
    assert xs[0] != xs[1]


@pytest.mark.parametrize("case", ["fresh", "forced"])
def test_keygen_writes_the_private_key_for_its_owner_only(tmp_path, case):
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    args = ["keygen", "--pub", str(pub), "--priv", str(priv), "--paper-fidelity", "--seed", "3"]
    old_umask = os.umask(0o022)
    try:
        if case == "forced":  # O_TRUNC keeps an existing file's mode
            priv.write_text("old")
            priv.chmod(0o644)
            args.append("--force")
        assert main(args) == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(priv.stat().st_mode) == 0o600
    assert stat.S_IMODE(pub.stat().st_mode) == 0o644
    assert pow(809, elgamal.load_private_key(priv).x, 997) == elgamal.load_public_key(pub).y


def test_keygen_default_256_bit(tmp_path):
    pub_path = tmp_path / "k.pub"
    priv_path = tmp_path / "k.priv"
    assert main(["keygen", "--pub", str(pub_path), "--priv", str(priv_path),
                 "--seed", "11"]) == 0
    pub = elgamal.load_public_key(pub_path)
    assert pub.p.bit_length() == 256
    assert elgamal.is_probable_prime(pub.p)


@pytest.mark.parametrize("bits", ["8193", "1000000000", pytest.param("9" * 4301, id="4301-nines")])
def test_key_generation_refuses_bits_above_8192(tmp_path, capsys, bits):
    # The key search holds its candidates as a 512 x ceil(bits / 64) uint64
    # array: a size past the bound is refused before any allocation or file.
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--bits", bits, "--seed", "1"]) == 2
    assert_one_error_line(capsys, 2)
    assert not pub.exists() and not priv.exists()
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    report = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(dataset), "--bits", bits, "--seed", "0",
                 "--report", str(report)]) == 2
    assert_one_error_line(capsys, 2)
    assert not report.exists()


@pytest.mark.parametrize("bits", ["15", "0", "-3"])
def test_key_generation_refuses_bits_below_16(tmp_path, capsys, bits):
    # An out-of-range flag is a usage error at either end of the range.
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--bits", bits, "--seed", "1"]) == 2
    assert_one_error_line(capsys, 2)
    assert not pub.exists() and not priv.exists()
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    report = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(dataset), "--bits", bits, "--seed", "0",
                 "--report", str(report)]) == 2
    assert_one_error_line(capsys, 2)
    assert not report.exists()


@pytest.mark.parametrize("bits", ["99999", "3"])
@pytest.mark.parametrize("source", ["keygen-paper-fidelity", "bench-paper-fidelity", "bench-key-files"])
def test_out_of_range_bits_is_refused_whatever_the_key_source(tmp_path, capsys, keys, source, bits):
    # --bits is checked as it is parsed, also where --paper-fidelity or key files leave it unused.
    pub, priv = keys
    out = tmp_path / "out.csv"
    bench_args = ["bench", "--input", str(one_clip_dataset(tmp_path)), "--report", str(out), "--attacks", ""]
    argv = {
        "keygen-paper-fidelity": ["keygen", "--pub", str(out), "--priv", str(tmp_path / "out.priv"),
                                  "--paper-fidelity"],
        "bench-paper-fidelity": [*bench_args, "--paper-fidelity"],
        "bench-key-files": [*bench_args, "--pub", str(pub), "--priv", str(priv)],
    }[source]
    before = tree(tmp_path)
    assert main([*argv, "--seed", "0", "--bits", bits]) == 2
    assert "--bits" in assert_one_error_line(capsys, 2)["message"]
    assert tree(tmp_path) == before


def test_seeded_keygen_proves_q_and_never_p(tmp_path, monkeypatch):
    # Pocklington's criterion proves p from q: Miller-Rabin runs on q alone.
    proved = []
    real = elgamal.is_probable_prime
    monkeypatch.setattr(elgamal, "is_probable_prime", lambda n: proved.append(n) or real(n))
    pub = tmp_path / "k.pub"
    assert main(["keygen", "--pub", str(pub), "--priv", str(tmp_path / "k.priv"),
                 "--bits", "256", "--seed", "1"]) == 0
    p = int(json.loads(pub.read_text())["p"])
    assert p not in proved
    assert proved[-1] == (p - 1) // 2


def test_keyless_bench_proves_q_and_never_p(tmp_path, monkeypatch):
    # The key bench searches for enters StegoConfig proved: Miller-Rabin
    # runs on q candidates alone, never on p.
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "clip.y4m", w=16, h=16, frames=1, seed=0)
    proved, keys = [], []
    real_prove, real_run = elgamal.is_probable_prime, bench.run
    monkeypatch.setattr(elgamal, "is_probable_prime", lambda n: proved.append(n) or real_prove(n))
    monkeypatch.setattr(bench, "run", lambda **kw: keys.append(kw["cfg"].public) or real_run(**kw))
    assert main(["bench", "--input", str(dataset), "--bits", "64", "--seed", "3", "--attacks", ""]) == 0
    p = keys[0].p
    assert p.bit_length() == 64 and p not in proved
    assert proved[-1] == (p - 1) // 2
    assert {n.bit_length() for n in proved} == {63}  # q candidates: getrandbits(63) with its top bit set


def test_keygen_fresh_prime(tmp_path, monkeypatch):
    pub_path = tmp_path / "p.pub"
    priv_path = tmp_path / "p.priv"
    proved = []
    real_prove = elgamal.is_probable_prime
    monkeypatch.setattr(elgamal, "is_probable_prime", lambda n: proved.append(n) or real_prove(n))
    assert main(["keygen", "--pub", str(pub_path), "--priv", str(priv_path),
                 "--bits", "96", "--seed", "7"]) == 0
    # save_public_key validates what it writes, and the searched key carries its pass: p is never tested.
    p = int(json.loads(pub_path.read_text())["p"])
    assert p not in proved and proved[-1] == (p - 1) // 2
    pub = elgamal.load_public_key(pub_path)
    assert pub.p.bit_length() == 96
    assert elgamal.is_probable_prime(pub.p)
    assert elgamal.is_probable_prime((pub.p - 1) // 2)


def test_seeded_512_bit_key_files_are_byte_identical(tmp_path):
    # Pins the seeded search at a size no golden bench reaches: same sieve
    # survivors, same first safe prime, same generator and private exponent.
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--bits", "512", "--seed", "1"]) == 0
    assert hashlib.sha256(pub.read_bytes()).hexdigest() == (
        "99b635904f6aafdc644b1fc0f7a435fed4270df05da79f50ba4814c34076fd68"
    )
    assert hashlib.sha256(priv.read_bytes()).hexdigest() == (
        "9b403e889bb478218d664f51135a9119e3c05e15b39d99f07625a8d21a0ab3e1"
    )


def test_embed_extract_roundtrip(workspace, capsys, tmp_path):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    out = capsys.readouterr().out
    assert "capacity: 1 bpp" in out
    assert (ws["tmp"] / "stego.y4m.sidecar.json").exists()

    outdir = ws["tmp"] / "recovered"
    code = main([
        "extract",
        "--input", str(stego),
        "--output", str(outdir),
        "--pub", str(ws["pub"]),
        "--priv", str(ws["priv"]),
        "--seed", "1234",
        "--qr-l", str(ws["qr_paths"]["L"]),
        "--qr-m", str(ws["qr_paths"]["M"]),
        "--qr-q", str(ws["qr_paths"]["Q"]),
        "--qr-h", str(ws["qr_paths"]["H"]),
        "--report", str(tmp_path / "ssim.csv"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ssim L: 1.0000" in out and "ssim H: 1.0000" in out
    for level in "LMQH":
        with open(outdir / f"0000_{level}.pgm", "rb") as handle:
            recovered = bitplane.load_qr(read_pgm(handle))
        assert np.array_equal(recovered.bits, ws["planes"][level].bits)
    # csv.writer's dialect, as every report the program writes: lines end in \r\n.
    assert (tmp_path / "ssim.csv").read_bytes() == (
        b"qr_level,ssim\r\nL,1.000000\r\nM,1.000000\r\nQ,1.000000\r\nH,1.000000\r\n"
    )


def test_embed_is_deterministic(workspace):
    ws = workspace
    a = ws["tmp"] / "a.y4m"
    b = ws["tmp"] / "b.y4m"
    assert main(embed_args(ws, a)) == 0
    assert main(embed_args(ws, b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (ws["tmp"] / "a.y4m.sidecar.json").read_bytes() == (
        ws["tmp"] / "b.y4m.sidecar.json"
    ).read_bytes()


def test_embed_seed_from_environment(workspace, monkeypatch):
    ws = workspace
    direct = ws["tmp"] / "direct.y4m"
    via_env = ws["tmp"] / "env.y4m"
    assert main(embed_args(ws, direct, seed="99")) == 0
    monkeypatch.setenv("QRSTEG_SEED", "99")
    args = embed_args(ws, via_env)
    args.remove("--seed")
    args.remove("1234")
    assert main(args) == 0
    assert direct.read_bytes() == via_env.read_bytes()


def test_embed_requires_seed(workspace, monkeypatch, capsys):
    monkeypatch.delenv("QRSTEG_SEED", raising=False)
    ws = workspace
    args = embed_args(ws, ws["tmp"] / "x.y4m")
    args.remove("--seed")
    args.remove("1234")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["exit"] == 2


def test_embed_rejects_wrong_qr_size(workspace, capsys):
    ws = workspace
    bad = ws["tmp"] / "bad.pgm"
    write_qr(bad, w=8, h=8, seed=1)
    args = embed_args(ws, ws["tmp"] / "x.y4m")
    args[args.index(str(ws["qr_paths"]["L"]))] = str(bad)
    assert main(args) == 5
    assert json.loads(capsys.readouterr().err)["error"] == "CapacityError"


def test_embed_refuses_a_long_pgm_header_token(workspace, capsys):
    ws = workspace
    bad = ws["tmp"] / "bad.pgm"
    bad.write_bytes(b"P5\n" + b"9" * 1_000_000 + b" 16\n255\n" + bytes(256))
    args = embed_args(ws, ws["tmp"] / "x.y4m")
    args[args.index(str(ws["qr_paths"]["L"]))] = str(bad)
    assert main(args) == 3
    assert_one_error_line(capsys, 3)
    assert not (ws["tmp"] / "x.y4m").exists()


def test_embed_refuses_a_long_y4m_frame_parameter_line(workspace, capsys):
    ws = workspace
    bad = ws["tmp"] / "bad.y4m"
    cover = ws["cover"].read_bytes()
    second = cover.index(b"FRAME\n", cover.index(b"FRAME\n") + 1)
    bad.write_bytes(cover[:second] + b"FRAME " + b"X" * 1_000_000 + cover[second + 5 :])
    args = embed_args(ws, ws["tmp"] / "x.y4m")
    args[args.index(str(ws["cover"]))] = str(bad)
    assert main(args) == 3
    assert_one_error_line(capsys, 3)
    assert not (ws["tmp"] / "x.y4m").exists()


def test_embed_rejects_empty_video(workspace, capsys):
    ws = workspace
    empty = ws["tmp"] / "empty.y4m"
    with open(empty, "wb") as out:
        write_y4m(synth.gradient_video(32, 32, 0)[0], [], out)
    args = embed_args(ws, ws["tmp"] / "x.y4m")
    args[args.index(str(ws["cover"]))] = str(empty)
    assert main(args) == 3


def test_embed_over_an_ffmpeg_style_header_writes_back_only_the_six_known_tags(workspace):
    # Tags beyond W, H, F, I, A and C are skipped on read and not written back.
    ws = workspace
    header, body = ws["cover"].read_bytes().split(b"\n", 1)
    assert header == b"YUV4MPEG2 W32 H32 F30:1 Ip A1:1 C420jpeg"
    ws["cover"].write_bytes(header + b" XYSCSS=420JPEG XCOLORRANGE=LIMITED\n" + body)
    with open(ws["cover"], "rb") as cover:
        meta, frames = read_y4m(cover)
        assert meta == VideoMeta(32, 32, "30:1") and len(list(frames)) == 3
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    assert stego.read_bytes().split(b"\n", 1)[0] == header


@pytest.mark.parametrize("body", [b"", b"FRAME\n" + bytes(100)], ids=["no-frames", "truncated"])
def test_embed_reads_a_frame_before_building_the_coder(workspace, capsys, monkeypatch, body):
    # The header is untrusted: W4000 H4000 must not buy a 4000x4000 coder build
    # before a single frame has arrived.
    def refuse(*args, **kwargs):
        raise AssertionError("FrameCoder built before a frame was read")

    monkeypatch.setattr(cli, "FrameCoder", refuse)
    ws = workspace
    clip = ws["tmp"] / "big.y4m"
    clip.write_bytes(b"YUV4MPEG2 W4000 H4000 F25:1 C420jpeg\n" + body)
    output = ws["tmp"] / "x.y4m"
    args = embed_args(ws, output)
    args[args.index(str(ws["cover"]))] = str(clip)
    assert main(args) == 3
    assert_one_error_line(capsys, 3)
    assert not output.exists()


@pytest.mark.parametrize("command", ["embed", "attack"])
def test_failed_run_leaves_no_output(workspace, capsys, command):
    ws = workspace
    cut = ws["tmp"] / "cut.y4m"
    cut.write_bytes(ws["cover"].read_bytes()[:-100])  # the third frame is 100 bytes short
    output = ws["tmp"] / "o.y4m"
    if command == "embed":
        args = embed_args(ws, output)
        args[args.index(str(ws["cover"]))] = str(cut)
    else:
        args = ["attack", "--input", str(cut), "--output", str(output), "--attack", "sp:0.1"]
    before = set(ws["tmp"].iterdir())
    assert main(args) == 3
    assert_one_error_line(capsys, 3)
    assert set(ws["tmp"].iterdir()) == before  # no video, no sidecar, no temporary
    # A good run leaves exactly its outputs.
    args[args.index(str(cut))] = str(ws["cover"])
    assert main(args) == 0
    expected = {output, ws["tmp"] / "o.y4m.sidecar.json"} if command == "embed" else {output}
    assert set(ws["tmp"].iterdir()) - before == expected


HUGE_PGM = b"P5\n1000000000 1000000000\n255\n" + bytes(100)
HUGE_Y4M = b"YUV4MPEG2 W1000000000 H1000000000 F25:1 C420jpeg\nFRAME\n" + bytes(100)


@pytest.mark.parametrize("reader", ["pgm", "y4m", "raw", "raw-4301-digit-width"])
def test_readers_refuse_a_declared_size_the_file_does_not_hold(workspace, capsys, reader):
    # A header may declare 10^18 bytes; the readers read in bounded chunks, so a
    # short file is a truncation, not an attempt to allocate what it declares.
    ws = workspace
    output = ws["tmp"] / "o.y4m"
    if reader == "pgm":
        ws["qr_paths"]["L"].write_bytes(HUGE_PGM)
        args = embed_args(ws, output)
    elif reader == "y4m":
        (ws["tmp"] / "huge.y4m").write_bytes(HUGE_Y4M)
        args = ["attack", "--input", str(ws["tmp"] / "huge.y4m"), "--output", str(output)]
    else:
        (ws["tmp"] / "huge.yuv").write_bytes(bytes(100))
        width = "1000000000" if reader == "raw" else "8" * 4301  # read as 4,300 eights
        args = ["attack", "--input", str(ws["tmp"] / "huge.yuv"), "--output", str(output),
                "--width", width, "--height", "1000000000"]
    assert main(args) == 3
    assert_one_error_line(capsys, 3)
    assert not output.exists()


def test_attack_refuses_a_size_whose_y4m_header_its_reader_would_refuse(workspace, capsys):
    # An empty raw input has no frame to read, so only the header is at stake:
    # with a 600-digit width it is longer than read_y4m takes, so none is written.
    ws = workspace
    (ws["tmp"] / "empty.yuv").write_bytes(b"")
    output = ws["tmp"] / "o.y4m"
    args = ["attack", "--input", str(ws["tmp"] / "empty.yuv"), "--output", str(output),
            "--width", "2" * 600, "--height", "16"]
    assert main(args) == 3
    error = assert_one_error_line(capsys, 3)
    assert error["message"] == "Y4M header line of 639 bytes is longer than 512 bytes"
    assert not output.exists()


def test_embed_missing_qr_flag_is_usage_error(workspace):
    ws = workspace
    args = embed_args(ws, ws["tmp"] / "x.y4m")
    i = args.index("--qr-h")
    del args[i : i + 2]
    assert main(args) == 2


@pytest.mark.parametrize("case", ["embed-without-input", "keygen-bits-abc", "unknown-command", "empty-argv",
                                  "bench-pub-without-priv", "bench-priv-without-pub"])
def test_argument_errors_print_one_json_line(workspace, capsys, case):
    # argparse's own errors end like every other failure: one JSON line, exit 2, no output.
    ws = workspace
    tmp = ws["tmp"]
    embed = embed_args(ws, tmp / "out.y4m")
    i = embed.index("--input")
    del embed[i : i + 2]
    argv = {
        "embed-without-input": embed,
        "keygen-bits-abc": ["keygen", "--pub", str(tmp / "k.pub"), "--priv", str(tmp / "k.priv"), "--bits", "abc"],
        "unknown-command": ["hide", "--output", str(tmp / "out.y4m")],
        "empty-argv": [],
        "bench-pub-without-priv": ["bench", "--input", str(tmp), "--pub", str(ws["pub"])],
        "bench-priv-without-pub": ["bench", "--input", str(tmp), "--priv", str(ws["priv"])],
    }[case]
    before = set(tmp.rglob("*"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UsageError"
    assert json.loads(lines[0])["exit"] == 2
    assert captured.out == ""
    assert set(tmp.rglob("*")) == before


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "keygen" in capsys.readouterr().out


def test_empty_seed_flag_is_a_passphrase_and_empty_env_is_no_seed(workspace, monkeypatch, capsys):
    ws = workspace
    monkeypatch.setenv("QRSTEG_SEED", "")
    args = embed_args(ws, ws["tmp"] / "x.y4m")
    args.remove("--seed")
    args.remove("1234")
    assert main(args) == 2  # an empty QRSTEG_SEED is no seed
    assert_one_error_line(capsys, 2)
    empty, hashed = ws["tmp"] / "empty.y4m", ws["tmp"] / "hashed.y4m"
    assert main(embed_args(ws, empty, seed="")) == 0
    assert main(embed_args(ws, hashed, seed=str(StegoKey.from_passphrase("").seed))) == 0
    assert empty.read_bytes() == hashed.read_bytes()
    capsys.readouterr()
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(ws["tmp"] / "a.y4m")]) == 0
    assert "seed: 0)" in capsys.readouterr().out


def test_extract_wrong_seed_warns_and_recovers_noise(workspace, capsys):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    capsys.readouterr()
    outdir = ws["tmp"] / "rec"
    assert main([
        "extract", "--input", str(stego), "--output", str(outdir),
        "--pub", str(ws["pub"]), "--priv", str(ws["priv"]), "--seed", "999",
        "--qr-l", str(ws["qr_paths"]["L"]),
        "--qr-m", str(ws["qr_paths"]["M"]),
        "--qr-q", str(ws["qr_paths"]["Q"]),
        "--qr-h", str(ws["qr_paths"]["H"]),
    ]) == 0
    captured = capsys.readouterr()
    assert "fingerprint does not match" in captured.err
    for line in captured.out.splitlines():
        if line.startswith("ssim "):
            assert abs(float(line.split(":")[1])) < 0.25  # noise, not the payload


def test_extract_missing_sidecar(workspace, capsys):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    (ws["tmp"] / "stego.y4m.sidecar.json").unlink()
    assert main([
        "extract", "--input", str(stego), "--output", str(ws["tmp"] / "rec"),
        "--pub", str(ws["pub"]), "--priv", str(ws["priv"]), "--seed", "1234",
    ]) == 3


def test_embed_report_lists_every_frame(workspace):
    ws = workspace
    report = ws["tmp"] / "embed.csv"
    assert main(embed_args(ws, ws["tmp"] / "stego.y4m", extra=["--report", str(report)])) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "frame,mse,psnr_db,mse_luma,psnr_luma_db"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "average", "capacity_bpp"]
    assert lines[-1] == "capacity_bpp,1.000000,,,"


def write_stego_prefix(ws, stego, path, count):
    """The first count frames of stego as a Y4M at path, which shares stego's sidecar."""
    with open(stego, "rb") as handle:
        meta, frames = read_y4m(handle)
        frames = [frame for _, frame in zip(range(count), frames)]
    with open(path, "wb") as out:
        write_y4m(meta, frames, out)
    return ["--sidecar", str(ws["tmp"] / "stego.y4m.sidecar.json")]


def test_extract_of_a_video_shorter_than_its_sidecar_warns(workspace, capsys):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    short = ws["tmp"] / "short.y4m"
    sidecar_args = write_stego_prefix(ws, stego, short, 1)
    capsys.readouterr()
    assert main(extract_args(ws, short) + sidecar_args) == 0
    assert capsys.readouterr().err == "warning: sidecar records 3 frames, video held 1\n"
    rec = ws["tmp"] / "rec"
    assert sorted(path.name for path in rec.iterdir()) == [f"0000_{level}.pgm" for level in "HLMQ"]
    for level, plane in ws["planes"].items():
        with open(rec / f"0000_{level}.pgm", "rb") as handle:
            assert np.array_equal(read_pgm(handle), bitplane.render(plane))


@pytest.mark.parametrize("last_public", [None, "0"], ids=["valid-sidecar", "bad-last-record"])
def test_extract_of_a_video_with_no_frames(workspace, capsys, last_public):
    # Every sidecar record is checked before any output, also when no frame follows.
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    empty = ws["tmp"] / "empty.y4m"
    sidecar_args = write_stego_prefix(ws, stego, empty, 0)
    if last_public is not None:
        sidecar = ws["tmp"] / "stego.y4m.sidecar.json"
        doc = json.loads(sidecar.read_text())
        doc["frames"][-1]["H"][-1] = last_public
        sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    if last_public is None:
        assert main(extract_args(ws, empty) + sidecar_args) == 0
        assert capsys.readouterr().err == "warning: sidecar records 3 frames, video held 0\n"
    else:
        assert main(extract_args(ws, empty) + sidecar_args) == 4
        assert_one_error_line(capsys, 4)
    assert not (ws["tmp"] / "rec").exists()


@pytest.mark.parametrize("case", ["more-frames", "truncated", "existing-dir"])
def test_failed_extract_leaves_no_pgm(workspace, capsys, case):
    # The last frame fails after the first two decoded: its sidecar record is
    # gone, or the video ends 100 bytes short. No frame's PGMs may remain, nor
    # the output directory unless it was there before.
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    rec = ws["tmp"] / "rec"
    if case == "existing-dir":
        rec.mkdir()
        (rec / "keep.txt").write_text("kept")
    assert main(embed_args(ws, stego)) == 0
    if case == "more-frames":
        sidecar = ws["tmp"] / "stego.y4m.sidecar.json"
        doc = json.loads(sidecar.read_text())
        del doc["frames"][-1]
        doc["video"]["frame_count"] -= 1
        sidecar.write_text(json.dumps(doc))
    else:
        stego.write_bytes(stego.read_bytes()[:-100])
    capsys.readouterr()
    assert main(extract_args(ws, stego)) == 3
    assert_one_error_line(capsys, 3)
    if case == "existing-dir":
        assert [path.name for path in rec.iterdir()] == ["keep.txt"]  # no PGM, no temporary
        assert (rec / "keep.txt").read_text() == "kept"
    else:
        assert not rec.exists()


@pytest.mark.parametrize("command", ["embed", "extract"])
def test_a_report_that_cannot_be_written_leaves_no_output(workspace, capsys, command):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    report = ["--report", str(ws["tmp"] / "missing" / "report.csv")]
    if command == "embed":
        args = embed_args(ws, stego, extra=report)
    else:
        assert main(embed_args(ws, stego)) == 0
        args = extract_args(ws, stego) + report
    before = set(ws["tmp"].iterdir())
    capsys.readouterr()
    assert main(args) == 3
    assert_one_error_line(capsys, 3)
    assert set(ws["tmp"].iterdir()) == before  # no video, sidecar, PGM directory or temporary


def tree(root):
    """Every path under root, directories included."""
    return set(root.rglob("*"))


@pytest.mark.parametrize("command", ["embed", "extract"])
def test_a_report_target_that_is_a_directory_leaves_no_output(workspace, capsys, command):
    # Every target is checked when it is staged, so none moves before the
    # report's would fail: the video, sidecar and PGMs stay unwritten.
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    report = ws["tmp"] / "report.csv"
    report.mkdir()
    if command == "embed":
        args = embed_args(ws, stego, extra=["--report", str(report)])
    else:
        assert main(embed_args(ws, stego)) == 0
        args = extract_args(ws, stego) + ["--report", str(report)]
    before = tree(ws["tmp"])
    capsys.readouterr()
    assert main(args) == 3
    assert_one_error_line(capsys, 3)
    assert tree(ws["tmp"]) == before


@pytest.mark.parametrize("case", ["missing-dir", "directory"])
def test_keygen_that_cannot_write_the_private_key_leaves_no_file(tmp_path, capsys, case):
    pub = tmp_path / "pub.json"
    priv = tmp_path / ("missing/priv.json" if case == "missing-dir" else "priv.json")
    if case == "directory":
        priv.mkdir()
    before = tree(tmp_path)
    assert main(["keygen", "--pub", str(pub), "--priv", str(priv), "--paper-fidelity", "--force"]) == 3
    assert_one_error_line(capsys, 3)
    assert tree(tmp_path) == before


def test_bench_that_cannot_write_the_attacks_report_leaves_no_report(tmp_path, capsys):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    (tmp_path / "r.attacks.csv").mkdir()
    before = tree(tmp_path)
    assert main(["bench", "--input", str(dataset), "--report", str(tmp_path / "r.csv"),
                 "--paper-fidelity", "--seed", "0", "--attacks", "sp:0.01", "--attack-seeds", "1"]) == 3
    err = capsys.readouterr().err.strip().splitlines()  # progress lines, then the error
    assert json.loads(err[-1])["message"] == f"output target is a directory: '{tmp_path / 'r.attacks.csv'}'"
    assert tree(tmp_path) == before


def test_embed_draws_one_keystream_per_level_and_frame(workspace, monkeypatch):
    # The sender XORs plane bits with the keystream it keeps: no byte-domain
    # round trip through pack, stream_encrypt or xor_bytes.
    calls = []
    real_keystreams = elgamal.keystreams
    monkeypatch.setattr(elgamal, "keystreams", lambda *a: calls.append(("keystreams", len(a[2]))) or real_keystreams(*a))
    for name in ("elgamal.keystream", "elgamal.stream_encrypt", "elgamal.xor_bytes", "bitplane.pack", "stego.pack"):
        monkeypatch.setattr(f"qrsteg.{name}", lambda *a, name=name: calls.append(name), raising=False)
    assert main(embed_args(workspace, workspace["tmp"] / "stego.y4m")) == 0
    assert calls == [("keystreams", 4)] * 3  # one call of 4 levels per frame, 3 frames


def test_attack_identity_is_byte_exact(workspace):
    ws = workspace
    out = ws["tmp"] / "copy.y4m"
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(out)]) == 0
    assert out.read_bytes() == ws["cover"].read_bytes()


def test_attack_deterministic_and_effective(workspace):
    ws = workspace
    a = ws["tmp"] / "na.y4m"
    b = ws["tmp"] / "nb.y4m"
    c = ws["tmp"] / "nc.y4m"
    base = ["attack", "--input", str(ws["cover"]), "--attack", "sp:0.2"]
    assert main(base + ["--output", str(a), "--seed", "5"]) == 0
    assert main(base + ["--output", str(b), "--seed", "5"]) == 0
    assert main(base + ["--output", str(c), "--seed", "6"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert a.read_bytes() != ws["cover"].read_bytes()


def test_attack_rejects_bad_spec(workspace, capsys):
    ws = workspace
    assert main(["attack", "--input", str(ws["cover"]), "--output",
                 str(ws["tmp"] / "x.y4m"), "--attack", "gamma:1"]) == 3


def test_raw_video_input(workspace, tmp_path):
    ws = workspace
    raw = tmp_path / "cover.yuv"
    with open(ws["cover"], "rb") as handle:
        _, frames = read_y4m(handle)
        with open(raw, "wb") as out:
            for frame in frames:
                out.write(frame.y.tobytes())
                out.write(frame.u.tobytes())
                out.write(frame.v.tobytes())
    args = embed_args(ws, tmp_path / "from_raw.y4m")
    args[args.index(str(ws["cover"]))] = str(raw)
    assert main(args) == 2  # width/height missing
    assert main(args + ["--width", "32", "--height", "32"]) == 0


@pytest.mark.parametrize(
    "case", ["keygen", "keygen-relative", "keygen-linked-dir", "embed-sidecar", "embed-report"]
)
def test_two_outputs_naming_one_file_write_nothing(workspace, capsys, monkeypatch, case):
    # The second output would replace the first: a shared key path would
    # leave only the private key where the public key should be.
    ws = workspace
    monkeypatch.chdir(ws["tmp"])
    (ws["tmp"] / "link").symlink_to(ws["tmp"], target_is_directory=True)
    same = ws["tmp"] / "same.out"
    second = {
        "keygen-relative": "same.out",  # relative to the working directory
        "keygen-linked-dir": str(ws["tmp"] / "link" / "same.out"),
    }.get(case, str(same))
    if case.startswith("keygen"):
        args = ["keygen", "--pub", str(same), "--priv", second, "--paper-fidelity", "--seed", "3"]
    else:
        args = embed_args(ws, same, extra=[f"--{case.split('-')[1]}", second])
    before = tree(ws["tmp"])
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "UsageError", "exit": 2, "message": f"two outputs name the same file: '{second}'"}
    ]
    assert tree(ws["tmp"]) == before


@pytest.mark.parametrize("command", ["keygen", "embed", "bench"])
def test_a_refused_output_stops_the_command_before_its_work(workspace, capsys, monkeypatch, command):
    # Every output target is staged before the key search, the first frame read or the sweep.
    ws = workspace
    for owner, name in ((elgamal, "generate_key_params"), (cli, "FrameCoder"), (bench, "run")):
        monkeypatch.setattr(owner, name, lambda *a, name=name, **kw: pytest.fail(f"{name} ran before the refusal"))
    same = ws["tmp"] / "same.out"
    if command == "keygen":
        args, code = ["keygen", "--pub", str(same), "--priv", str(same), "--bits", "64", "--seed", "1"], 2
    elif command == "embed":
        args, code = embed_args(ws, same, extra=["--sidecar", str(same)]), 2
    else:
        dataset = ws["tmp"] / "clips"
        dataset.mkdir()
        write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
        (ws["tmp"] / "r.attacks.csv").mkdir()
        args, code = ["bench", "--input", str(dataset), "--report", str(ws["tmp"] / "r.csv"), "--seed", "0"], 3
    before = tree(ws["tmp"])
    assert main(args) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line)["exit"] for line in err.splitlines()] == [code]
    assert tree(ws["tmp"]) == before


def test_outputs_through_a_symlinked_name_are_two_files(tmp_path):
    # os.replace replaces a symlink itself, not the file it points to.
    (tmp_path / "link.json").symlink_to(tmp_path / "priv.json")
    (tmp_path / "priv.json").write_text("old")
    assert main(["keygen", "--pub", str(tmp_path / "link.json"), "--priv", str(tmp_path / "priv.json"),
                 "--paper-fidelity", "--seed", "3", "--force"]) == 0
    assert not (tmp_path / "link.json").is_symlink()
    assert elgamal.load_public_key(tmp_path / "link.json").p == 997
    assert elgamal.load_private_key(tmp_path / "priv.json").x > 0


def test_bench_smoke(tmp_path, capsys):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=2, seed=1)
    write_clip(dataset / "two.y4m", w=16, h=16, frames=2, seed=2)
    report = tmp_path / "bench.csv"
    code = main([
        "bench", "--input", str(dataset), "--report", str(report),
        "--paper-fidelity", "--seed", "0",
        "--attacks", "sp:0.01", "--attack-seeds", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "robustness" in out
    fidelity = report.read_text().splitlines()
    assert fidelity[0].startswith("clip,frames")
    assert len(fidelity) == 3
    attacks_csv = (tmp_path / "bench.attacks.csv").read_text().splitlines()
    assert attacks_csv[0] == "attack,ssim_L,ssim_M,ssim_Q,ssim_H"
    none_row = attacks_csv[1].split(",")
    assert none_row[0] == "none"
    assert all(float(v) == 1.0 for v in none_row[1:])


@pytest.mark.parametrize("keygen", [None, ["--bits", "64", "--seed", "7"]], ids=["paper", "bits64"])
def test_bench_bp_bytes_is_the_size_of_the_sidecar_embed_writes(workspace, keygen):
    # The public values do not depend on the payload, so bench's sidecar for a clip
    # is the one embed writes for the same clip, key pair and seed.
    ws = workspace
    if keygen:
        assert main(["keygen", "--pub", str(ws["pub"]), "--priv", str(ws["priv"]), *keygen, "--force"]) == 0
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    dataset = ws["tmp"] / "clips"
    dataset.mkdir()
    (dataset / "cover.y4m").write_bytes(ws["cover"].read_bytes())
    report = ws["tmp"] / "bench.csv"
    assert main(["bench", "--input", str(dataset), "--report", str(report), "--pub", str(ws["pub"]),
                 "--priv", str(ws["priv"]), "--seed", "1234", "--attacks", ""]) == 0
    with open(report, newline="") as handle:
        (row,) = csv.DictReader(handle)
    size = (ws["tmp"] / "stego.y4m.sidecar.json").stat().st_size
    assert int(row["bp_bytes"]) == size
    assert row["bp_overhead"] == f"{size / (3 * 4 * 32):.6f}"  # 3 frames, 4 levels, 16x16 bits each


def test_main_builds_one_parser_and_keeps_no_flags_between_commands(workspace, capsys, monkeypatch):
    ws = workspace
    monkeypatch.delenv("QRSTEG_SEED", raising=False)
    cli.build_parser.cache_clear()
    out = ws["tmp"] / "noisy.y4m"
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(out), "--attack", "sp:0.1",
                 "--seed", "3"]) == 0
    assert "(attacks: sp:0.1, seed: 3)" in capsys.readouterr().out
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(out)]) == 0
    assert "(attacks: none, seed: 0)" in capsys.readouterr().out
    assert out.read_bytes() == ws["cover"].read_bytes()
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("sizes,builds", [([16, 16, 16], 1), ([16, 24, 16], 2)])
def test_bench_builds_one_coder_per_geometry(tmp_path, monkeypatch, sizes, builds):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    for i, size in enumerate(sizes):
        write_clip(dataset / f"clip{i}.y4m", w=size, h=16, frames=1, seed=i)
    # The payload set and its SSIM references, four of each, are shared with the coder.
    built = []
    for name in ("FrameCoder", "qr_like_plane", "SsimReference"):
        real = getattr(bench, name)
        monkeypatch.setattr(bench, name, lambda *a, real=real, name=name, **kw: built.append(name) or real(*a, **kw))
    assert main(["bench", "--input", str(dataset), "--report", str(tmp_path / "b.csv"),
                 "--paper-fidelity", "--seed", "0", "--attacks", "sp:0.01"]) == 0
    assert built == (["FrameCoder"] + ["qr_like_plane"] * 4 + ["SsimReference"] * 4) * builds
    assert len((tmp_path / "b.csv").read_text().splitlines()) == 1 + len(sizes)


def test_bench_proves_the_key_once_for_all_clips(tmp_path, monkeypatch):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    for i in range(2):
        write_clip(dataset / f"clip{i}.y4m", w=16, h=16, frames=1, seed=i)
    proved = []
    real = elgamal.is_probable_prime

    def counting(n, *args):
        proved.append(n)
        return real(n, *args)

    monkeypatch.setattr(elgamal, "is_probable_prime", counting)
    cfg = StegoConfig(key=StegoKey(seed=0), public=elgamal.ElGamalPublic(p=997, alpha=809, y=12),
                      private=elgamal.ElGamalPrivate(x=420))
    result = bench.run(dataset, cfg, attack_specs=[], attack_seeds=1, max_frames=None, robust_frames=30)
    assert len(result.fidelity) == 2
    assert proved == [997]


def test_bench_decodes_without_regenerating_a_keystream(tmp_path, monkeypatch):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    for i in range(2):
        write_clip(dataset / f"clip{i}.y4m", w=16, h=16, frames=2, seed=i)
    calls = []
    for name in ("regenerate_keystream", "replay_keystreams"):
        real = getattr(elgamal, name)
        monkeypatch.setattr(elgamal, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    cfg = StegoConfig(key=StegoKey(seed=0), public=elgamal.ElGamalPublic(p=997, alpha=809, y=12),
                      private=elgamal.ElGamalPrivate(x=420))
    result = bench.run(dataset, cfg, attack_specs=[AttackSpec.parse("sp:0.01")], attack_seeds=2,
                       max_frames=None, robust_frames=30)
    assert calls == []
    assert list(result.robustness) == ["none", "sp:0.01"]
    assert set(result.robustness["none"].values()) == {1.0}
    # The counters sit on extract's path: one frame record replays its four
    # keystreams in one batch, and each level of [5], which no replayed
    # exponent proves, runs the d^x reference.
    frame_keystreams([{level: [5] for level in "LMQH"}], cfg, 1)
    assert calls == ["replay_keystreams"] + ["regenerate_keystream"] * 4


def count_pair_proofs(monkeypatch, pub_path, priv_path):
    """A list that gains an entry each time elgamal computes alpha^x mod p for this key pair."""
    pub, x = elgamal.load_public_key(pub_path), elgamal.load_private_key(priv_path).x
    proofs = []

    def spy(*args):
        if args == (pub.alpha, x, pub.p):
            proofs.append(args)
        return pow(*args)

    monkeypatch.setattr(elgamal, "pow", spy, raising=False)
    return proofs


def test_bench_proves_a_loaded_key_once(tmp_path, monkeypatch, keys):
    pub, priv = keys
    dataset = tmp_path / "clips"
    dataset.mkdir()
    for i in range(2):
        write_clip(dataset / f"clip{i}.y4m", w=16, h=16, frames=1, seed=i)
    proved = []
    real = elgamal.is_probable_prime

    def counting(n, *args):
        proved.append(n)
        return real(n, *args)

    pair_proofs = count_pair_proofs(monkeypatch, pub, priv)
    monkeypatch.setattr(elgamal, "is_probable_prime", counting)
    assert main(["bench", "--input", str(dataset), "--pub", str(pub), "--priv", str(priv),
                 "--seed", "0", "--attacks", "sp:0.01"]) == 0
    assert proved == [997]
    assert len(pair_proofs) == 1


def test_extract_proves_the_key_pair_once_whatever_the_frame_count(workspace, monkeypatch):
    ws = workspace
    write_clip(ws["cover"], frames=5, seed=3)
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    pair_proofs = count_pair_proofs(monkeypatch, ws["pub"], ws["priv"])
    assert main(extract_args(ws, stego)) == 0
    assert len(list((ws["tmp"] / "rec").glob("*.pgm"))) == 5 * 4
    assert len(pair_proofs) == 1


def test_bench_validates_the_public_key_when_it_loads_it(tmp_path, capsys, keys):
    # Unchecked, a composite p with an empty corpus exits 0.
    pub, priv = keys
    write_unproved_public_key(pub, 1001)
    dataset = tmp_path / "none"
    dataset.mkdir()
    report = tmp_path / "bench.csv"
    capsys.readouterr()
    assert main(["bench", "--input", str(dataset), "--report", str(report),
                 "--pub", str(pub), "--priv", str(priv), "--seed", "0"]) == 4
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == f"public key {pub}: p = 1001 is not prime"
    assert not report.exists()


def test_bench_run_checks_the_key_pair_before_reading_any_clip(tmp_path):
    # The StegoConfig bench.run takes proves the pair when it is built; run
    # refuses one that holds no private key.
    key, pub = StegoKey(seed=0), elgamal.ElGamalPublic(p=997, alpha=809, y=12)
    sweep = {"attack_seeds": 1, "max_frames": None, "robust_frames": 30}
    with pytest.raises(CryptoError, match="does not match the public key"):
        StegoConfig(key=key, public=pub, private=elgamal.ElGamalPrivate(x=421))
    with pytest.raises(CryptoError, match="requires the private key"):
        bench.run(tmp_path / "missing", StegoConfig(key=key, public=pub), attack_specs=[], **sweep)
    cfg = StegoConfig(key=key, public=pub, private=elgamal.ElGamalPrivate(x=420))
    with pytest.raises(FormatError, match="is not a directory"):
        bench.run(tmp_path / "missing", cfg, attack_specs=[], **sweep)


def test_bench_empty_dataset_writes_headers_only(tmp_path):
    dataset = tmp_path / "none"
    dataset.mkdir()
    report = tmp_path / "empty.csv"
    assert main(["bench", "--input", str(dataset), "--report", str(report),
                 "--paper-fidelity", "--seed", "0"]) == 0
    assert report.read_text().splitlines()[0].startswith("clip,")
    assert len(report.read_text().splitlines()) == 1


def extract_args(ws, stego, priv=None):
    return [
        "extract", "--input", str(stego), "--output", str(ws["tmp"] / "rec"),
        "--pub", str(ws["pub"]), "--priv", str(priv or ws["priv"]), "--seed", "1234",
    ]


def assert_one_error_line(capsys, code):
    """The one JSON error line on stderr, which must carry exit code; returns it parsed."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["exit"] == code
    return error


@pytest.mark.parametrize("x", ["-3", "0"])
def test_extract_rejects_non_positive_private_exponent(workspace, capsys, x):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    bad = ws["tmp"] / "bad.priv"
    bad.write_text(json.dumps({"kind": "elgamal-private", "x": x}))
    capsys.readouterr()
    assert main(extract_args(ws, stego, priv=bad)) == 4
    assert_one_error_line(capsys, 4)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda frame: frame.pop("H"),  # a frame missing a level
        lambda frame: frame.update(Q="12"),  # a level that is not a list
        lambda frame: frame["L"].__setitem__(0, 3.7),  # public values are decimal strings
        lambda frame: frame["L"].__setitem__(0, True),
        lambda frame: frame["L"].__setitem__(0, 320),
        lambda frame: frame["L"].__setitem__(0, None),
    ],
    ids=["missing-level", "string-level", "float-public", "bool-public", "int-public",
         "null-public"],
)
def test_extract_rejects_malformed_sidecar_frame(workspace, capsys, tamper):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    sidecar = ws["tmp"] / "stego.y4m.sidecar.json"
    doc = json.loads(sidecar.read_text())
    tamper(doc["frames"][1])
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(extract_args(ws, stego)) == 3
    assert_one_error_line(capsys, 3)


@pytest.mark.parametrize("d", ["0", "997", "-1", str(2**64), pytest.param("9" * 4301, id="4301-nines"),
                               pytest.param("0" * 4400 + "997", id="4400-zeros-then-997")])
def test_extract_checks_every_public_value_before_writing(workspace, capsys, d):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    sidecar = ws["tmp"] / "stego.y4m.sidecar.json"
    doc = json.loads(sidecar.read_text())
    doc["frames"][-1]["H"][-1] = d  # outside (0, p) for p = 997, in the last frame only
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(extract_args(ws, stego)) == 4
    assert_one_error_line(capsys, 4)
    assert not list(ws["tmp"].glob("rec/*.pgm"))


def test_extract_rejects_a_zero_keystream_power(workspace, capsys):
    # Under p = 1000 and x = 420 every sender public that is a multiple of 10
    # has d^x = 0, which has no bytes; extract refuses the composite p when
    # it loads the key, before any keystream is regenerated.
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    doc = json.loads((ws["tmp"] / "stego.y4m.sidecar.json").read_text())
    assert any(int(d) % 10 == 0 for frame in doc["frames"] for level in frame.values() for d in level)
    write_unproved_public_key(ws["pub"], 1000)
    capsys.readouterr()
    assert main(extract_args(ws, stego)) == 4
    assert_one_error_line(capsys, 4)


@pytest.mark.parametrize("p", [1003, 1000], ids=["17x59", "even"])
def test_extract_validates_the_public_key_when_it_loads_it(workspace, capsys, p):
    # Unchecked, both keys would reach the keystream and fail there with a
    # misleading message: p = 1003 as a short keystream, p = 1000 as a zero power.
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    write_unproved_public_key(ws["pub"], p)
    capsys.readouterr()
    assert main(extract_args(ws, stego)) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["exit"] == 4
    assert error["message"] == f"public key {ws['pub']}: p = {p} is not prime"
    assert not (ws["tmp"] / "rec").exists()
    # The key is checked before the sidecar is read.
    (ws["tmp"] / "stego.y4m.sidecar.json").unlink()
    assert main(extract_args(ws, stego)) == 4
    assert_one_error_line(capsys, 4)


def test_embed_names_the_public_key_it_refuses(workspace, capsys):
    ws = workspace
    write_unproved_public_key(ws["pub"], 1003)
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 4
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == f"public key {ws['pub']}: p = 1003 is not prime"
    assert not stego.exists()


@pytest.mark.parametrize(
    "text,p",
    [(str(2**8192 + 1), 2**8192 + 1), (str(3 * (2**8190 + 1)), 3 * (2**8190 + 1)),
     ("9" * 4301, 10**4300 - 1), ("0" * 4400 + "1003", 1003)],
    ids=["8193bit", "8192bit_3x", "4301-nines", "4400-zeros-then-1003"],
)
def test_a_key_above_the_largest_size_is_refused_before_any_primality_round(workspace, capsys, monkeypatch, text, p):
    # At 14,000 bits one Miller-Rabin round takes about 6 s, so the size is
    # checked first. A p of the largest size still reaches the primality test.
    # A decimal is read by its value at any length: leading zeros drop, and
    # digits past int()'s 4,300 are cut from a value already past every bound.
    ws = workspace
    assert elgamal.MAX_KEY_BITS == 8192
    tested = []
    real = elgamal.is_probable_prime
    monkeypatch.setattr(elgamal, "is_probable_prime", lambda n: tested.append(n) or real(n))
    ws["pub"].write_text(json.dumps({"kind": "elgamal-public", "p": text, "alpha": "2", "y": "4"}))
    stego = ws["tmp"] / "stego.y4m"
    capsys.readouterr()
    assert main(embed_args(ws, stego)) == 4
    message = json.loads(capsys.readouterr().err)["message"]
    if p.bit_length() > elgamal.MAX_KEY_BITS:
        assert message == (f"public key {ws['pub']}: p has {p.bit_length()} bits, "
                           "above the largest supported key size, 8192")
        assert tested == []
    else:
        assert message == f"public key {ws['pub']}: p = {p} is not prime"
        assert tested == [p]
    assert not stego.exists()


# keygen arguments for two key pairs of one kind, drawn under --seed 1 and --seed 2
OTHER_PAIR_KEYGEN = {"paper": ["--paper-fidelity"], "bits64": ["--bits", "64"]}


def write_two_key_pairs(tmp_path, kind):
    """(public key of pair a, private key of pair b)."""
    paths = {}
    for name, seed in (("a", "1"), ("b", "2")):
        paths[name] = tmp_path / f"{name}.pub", tmp_path / f"{name}.priv"
        assert main(["keygen", "--pub", str(paths[name][0]), "--priv", str(paths[name][1]),
                     *OTHER_PAIR_KEYGEN[kind], "--seed", seed]) == 0
    return paths["a"][0], paths["b"][1]


def assert_key_pair_error(capsys, pub, priv):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["exit"] == 4
    assert error["message"] == f"private key {priv} does not match public key {pub} (alpha^x != y mod p)"


@pytest.mark.parametrize("kind", sorted(OTHER_PAIR_KEYGEN))
def test_extract_refuses_a_private_key_of_another_pair(workspace, capsys, kind):
    # Unchecked, the wrong x regenerates noise, or a keystream of the wrong
    # length reported as a corrupt bundle.
    ws = workspace
    ws["pub"], other = write_two_key_pairs(ws["tmp"], kind)
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    capsys.readouterr()
    assert main(extract_args(ws, stego, priv=other)) == 4
    assert_key_pair_error(capsys, ws["pub"], other)
    assert not (ws["tmp"] / "rec").exists()
    # The pair is checked before the sidecar is read.
    (ws["tmp"] / "stego.y4m.sidecar.json").unlink()
    assert main(extract_args(ws, stego, priv=other)) == 4
    assert_key_pair_error(capsys, ws["pub"], other)


@pytest.mark.parametrize("kind", sorted(OTHER_PAIR_KEYGEN))
def test_bench_refuses_a_private_key_of_another_pair(tmp_path, capsys, kind):
    # Bench decodes with the sender's keystreams, so unchecked it would print
    # perfect tables for a private key that cannot decrypt anything.
    pub, other = write_two_key_pairs(tmp_path, kind)
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    report = tmp_path / "bench.csv"
    capsys.readouterr()
    assert main(["bench", "--input", str(dataset), "--report", str(report), "--pub", str(pub),
                 "--priv", str(other), "--seed", "0", "--attacks", "sp:0.01"]) == 4
    assert_key_pair_error(capsys, pub, other)
    assert not report.exists()


def test_extract_rejects_sidecar_frame_count_mismatch(workspace, capsys):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    sidecar = ws["tmp"] / "stego.y4m.sidecar.json"
    doc = json.loads(sidecar.read_text())
    doc["video"]["frame_count"] += 1
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(extract_args(ws, stego)) == 3
    assert_one_error_line(capsys, 3)


@pytest.mark.parametrize(
    "section,field,value",
    [
        ("video", "width", "32"),
        ("video", "height", 32.0),
        ("video", "frame_count", True),
        ("qr", "height", 16.0),
        (None, "plain_len", "32"),
    ],
)
def test_extract_rejects_sidecar_geometry_that_is_not_a_json_integer(
    workspace, capsys, section, field, value
):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    sidecar = ws["tmp"] / "stego.y4m.sidecar.json"
    doc = json.loads(sidecar.read_text())
    (doc[section] if section else doc)[field] = value
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(extract_args(ws, stego)) == 3
    assert_one_error_line(capsys, 3)


LONG = "9" * 200_000


@pytest.mark.parametrize(
    "section,field,value",
    [("video", "width", -2), ("video", "frame_rate", "bogus"), ("video", "frame_rate", 7),
     (None, "key_fingerprint", ["0123456789abcdef"]), (None, "key_fingerprint", "0123456789ABCDEF"),
     (None, "key_fingerprint", "0123456789abcde"), (None, "version", LONG), ("video", "width", LONG),
     ("video", "frame_rate", LONG), (None, "key_fingerprint", LONG)],
    ids=["negative-width", "text-frame-rate", "integer-frame-rate", "list-fingerprint", "uppercase-fingerprint",
         "short-fingerprint", "long-version", "long-width", "long-frame-rate", "long-fingerprint"],
)
def test_extract_refuses_a_malformed_video_block_or_fingerprint_as_the_sidecar_loads(
    tmp_path, capsys, keys, section, field, value
):
    # Each sidecar is whole but for one field and records no frames, so against
    # a video with no frames only the loader can refuse it. A Sidecar cannot
    # hold the bad field, so it is written into the JSON text.
    pub, priv = keys
    empty = tmp_path / "empty.y4m"
    empty.write_bytes(b"YUV4MPEG2 W16 H16 F25:1 Ip A1:1 C420jpeg\n")
    sidecar = tmp_path / "empty.y4m.sidecar.json"
    argv = ["extract", "--input", str(empty), "--output", str(tmp_path / "rec"), "--pub", str(pub),
            "--priv", str(priv), "--seed", "7"]
    Sidecar(VideoMeta(16, 16, "25:1"), StegoKey(seed=7).fingerprint()).write(sidecar)
    assert main(argv) == 0
    doc = json.loads(sidecar.read_text())
    (doc[section] if section else doc)[field] = value
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err) < 300  # a refused value is quoted by its first 40 characters and its length, never whole
    error = json.loads(err)
    assert error["exit"] == 3 and str(sidecar) in error["message"]


@pytest.mark.parametrize(
    "field,value",
    [("p", [997]), ("p", 997.9), ("p", 997), ("alpha", None), ("y", True), ("y", "12.0")],
)
def test_embed_rejects_public_key_field_that_is_not_a_decimal_string(
    workspace, capsys, field, value
):
    ws = workspace
    doc = json.loads(ws["pub"].read_text())
    doc[field] = value
    bad = ws["tmp"] / "bad.pub"
    bad.write_text(json.dumps(doc))
    stego = ws["tmp"] / "stego.y4m"
    args = embed_args(ws, stego)
    args[args.index(str(ws["pub"]))] = str(bad)
    assert main(args) == 3
    assert_one_error_line(capsys, 3)
    assert not stego.exists()


@pytest.mark.parametrize("x", [None, [420], 420, 420.0, True])
def test_extract_rejects_private_exponent_that_is_not_a_decimal_string(workspace, capsys, x):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    bad = ws["tmp"] / "bad.priv"
    bad.write_text(json.dumps({"kind": "elgamal-private", "x": x}))
    capsys.readouterr()
    assert main(extract_args(ws, stego, priv=bad)) == 3
    assert_one_error_line(capsys, 3)


def one_clip_dataset(tmp_path):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    return dataset


@pytest.mark.parametrize(
    "spec", ["speckle:inf", "speckle:nan", "gauss:0:inf", "gauss:nan:0.01", "speckle:1e308", "speckle:6e307"]
)
def test_attack_and_bench_reject_non_finite_parameters(workspace, capsys, spec):
    ws = workspace
    out = ws["tmp"] / "noisy.y4m"
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(out), "--attack", spec]) == 3
    assert_one_error_line(capsys, 3)
    assert not out.exists()
    dataset = one_clip_dataset(ws["tmp"])
    assert main(["bench", "--input", str(dataset), "--paper-fidelity", "--seed", "0",
                 "--attacks", spec]) == 3
    assert_one_error_line(capsys, 3)


@pytest.mark.parametrize(
    "spec,same_as", [("gauss:0:-0", "gauss:0:0"), ("speckle:-0", "speckle:0"),
                     ("gauss:-0:0.01", "gauss:0:0.01")]
)
def test_attack_and_bench_treat_negative_zero_as_zero(workspace, capsys, spec, same_as):
    ws = workspace
    outputs = []
    for i, text in enumerate((spec, same_as)):
        outputs.append(ws["tmp"] / f"noisy{i}.y4m")
        assert main(["attack", "--input", str(ws["cover"]), "--output", str(outputs[-1]),
                     "--attack", text, "--seed", "3"]) == 0
        assert f"(attacks: {same_as}, seed: 3)" in capsys.readouterr().out
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    report = ws["tmp"] / "bench.csv"
    assert main(["bench", "--input", str(one_clip_dataset(ws["tmp"])), "--report", str(report),
                 "--paper-fidelity", "--seed", "0", "--attacks", spec, "--attack-seeds", "1"]) == 0
    rows = (ws["tmp"] / "bench.attacks.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["none", same_as]


@pytest.mark.parametrize("spec", ["speckle:1e300", "speckle:5.9e307"])
def test_attack_and_bench_run_the_largest_speckle_variances(workspace, spec):
    ws = workspace
    out = ws["tmp"] / "noisy.y4m"
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(out), "--attack", spec]) == 0
    assert out.exists()
    assert main(["bench", "--input", str(one_clip_dataset(ws["tmp"])), "--paper-fidelity", "--seed", "0",
                 "--attacks", spec, "--attack-seeds", "1"]) == 0


@pytest.fixture(scope="module")
def fuzz_clip(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "clip.y4m"
    write_clip(path, w=36, h=28, frames=1, seed=2)
    return path


def any_double():
    # the whole double range: +-0, subnormals, the largest finite values, inf and nan
    return st.one_of(
        st.floats(),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 6e307, 5.9e307, 1.7976931348623157e308]),
    )


@st.composite
def attack_specs(draw):
    kind = draw(st.sampled_from(["sp", "gauss", "speckle"]))
    values = [draw(any_double()) for _ in range(2 if kind == "gauss" else 1)]
    return ":".join([kind, *map(repr, values)])


@settings(max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is drained per example
@given(attack_specs())
def test_attack_spec_fuzz_exits_cleanly(fuzz_clip, capsys, spec):
    out = fuzz_clip.parent / "noisy.y4m"
    capsys.readouterr()
    code = main(["attack", "--input", str(fuzz_clip), "--output", str(out), "--attack", spec])
    if code == 0:
        assert capsys.readouterr().err == ""
    else:
        assert code == 3, spec
        assert_one_error_line(capsys, 3)


def test_extract_refuses_a_sidecar_qr_size_that_is_not_half_the_video(tmp_path, capsys, keys):
    # 24x32 planes hold as many bits as the 32x24 ones a 64x48 clip carries,
    # so plain_len agrees; the extract must still write nothing.
    pub, priv = keys
    cover = tmp_path / "cover.y4m"
    write_clip(cover, w=64, h=48, frames=2, seed=5)
    qr_args = []
    for i, level in enumerate("lmqh"):
        path = tmp_path / f"qr_{level}.pgm"
        write_qr(path, w=32, h=24, seed=i)
        qr_args += [f"--qr-{level}", str(path)]
    stego = tmp_path / "stego.y4m"
    assert main(["embed", "--input", str(cover), "--output", str(stego), *qr_args,
                 "--pub", str(pub), "--seed", "7"]) == 0
    sidecar = tmp_path / "stego.y4m.sidecar.json"
    doc = json.loads(sidecar.read_text())
    doc["qr"] = {"width": 24, "height": 32}
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    out_dir = tmp_path / "rec"
    assert main(["extract", "--input", str(stego), "--output", str(out_dir),
                 "--pub", str(pub), "--priv", str(priv), "--seed", "7"]) == 3
    assert_one_error_line(capsys, 3)
    assert not list(out_dir.glob("*.pgm"))


def test_bench_rejects_negative_attack_seeds(tmp_path, capsys):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    assert main(["bench", "--input", str(dataset), "--paper-fidelity", "--seed", "0",
                 "--attack-seeds", "-3", "--attacks", "sp:0.1"]) == 2
    assert_one_error_line(capsys, 2)


def test_bench_rejects_zero_attack_seeds_for_requested_attacks(tmp_path, capsys):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    report = tmp_path / "bench.csv"
    args = ["bench", "--input", str(dataset), "--report", str(report), "--paper-fidelity",
            "--seed", "0", "--attack-seeds", "0"]
    assert main([*args, "--attacks", "sp:0.1"]) == 2
    assert_one_error_line(capsys, 2)
    assert not report.exists()
    assert main([*args, "--attacks", ""]) == 0  # no attack requested: only the none row
    rows = (tmp_path / "bench.attacks.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["none"]


def test_bench_prints_one_row_per_distinct_attack_label(tmp_path, capsys):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    report = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(dataset), "--report", str(report), "--paper-fidelity",
                 "--seed", "0", "--attacks", "sp:0.1,sp:0.10,gauss:0:0.01", "--attack-seeds", "1"]) == 0
    table = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ") and line.split()[0] in {"none", "sp:0.1", "gauss:0:0.01"}]
    assert table == ["none", "sp:0.1", "gauss:0:0.01"]
    rows = (tmp_path / "bench.attacks.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["none", "sp:0.1", "gauss:0:0.01"]


def test_bench_max_frames_zero_scores_no_frame(tmp_path, capsys):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "three.y4m", w=16, h=16, frames=3, seed=1)
    report = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(dataset), "--report", str(report),
                 "--paper-fidelity", "--seed", "0", "--max-frames", "0"]) == 0
    assert len(report.read_text().splitlines()) == 1  # header only, no fidelity row
    assert "skipping empty clip three.y4m" in capsys.readouterr().err


def test_bench_decodes_only_the_first_robust_frames(tmp_path):
    # Every frame embeds and counts for fidelity; the robustness runs decode
    # the first --robust-frames, each with the keystream of its own frame.
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "three.y4m", w=16, h=16, frames=3, seed=1)
    report = tmp_path / "bench.csv"

    def attacks_csv(*flags):
        assert main(["bench", "--input", str(dataset), "--report", str(report), "--paper-fidelity",
                     "--seed", "0", "--attacks", "sp:0.1,gauss:0:0.01", "--attack-seeds", "2", *flags]) == 0
        return (tmp_path / "bench.attacks.csv").read_text()

    first = attacks_csv("--robust-frames", "1")
    assert report.read_text().splitlines()[1].split(",")[:2] == ["three.y4m", "3"]
    assert attacks_csv("--max-frames", "1", "--robust-frames", "1") == first
    assert attacks_csv("--robust-frames", "2") != first


@pytest.mark.parametrize("flag", ["--max-frames", "--robust-frames"])
def test_bench_rejects_negative_frame_counts(tmp_path, capsys, flag):
    dataset = tmp_path / "clips"
    dataset.mkdir()
    write_clip(dataset / "one.y4m", w=16, h=16, frames=1, seed=1)
    assert main(["bench", "--input", str(dataset), "--paper-fidelity", "--seed", "0",
                 flag, "-1"]) == 2
    assert_one_error_line(capsys, 2)


@pytest.mark.parametrize(
    "header,token",
    [
        (b"YUV4MPEG2 Wx H16 F30:1 C420jpeg\n", "Wx"),
        (b"YUV4MPEG2 W16 H16 F30:1 C420p10\n", "C420p10"),
        (b"YUV4MPEG2 W16 H16 Fbogus C420jpeg\n", "Fbogus"),
        (b"YUV4MPEG2 W16 H16 F30 C420jpeg\n", "F30"),
        (b"YUV4MPEG2 W16 H16 F30:1 Ixyz C420jpeg\n", "Ixyz"),
        (b"YUV4MPEG2 W16 H16 F30:1 Aq C420jpeg\n", "Aq"),
    ],
    ids=[
        "non-integer-width",
        "10-bit-colorspace",
        "non-ratio-frame-rate",
        "frame-rate-without-denominator",
        "unknown-interlace",
        "non-ratio-aspect",
    ],
)
def test_attack_rejects_bad_y4m_header(tmp_path, capsys, header, token):
    clip = tmp_path / "bad.y4m"
    clip.write_bytes(header + b"FRAME\n" + bytes(16 * 16 * 3))  # 10-bit 4:2:0 frame size
    assert main(["attack", "--input", str(clip), "--output", str(tmp_path / "out.y4m")]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["exit"] == 3
    assert token in error["message"]  # the header token is blamed, not a later frame


# --- key-file and sidecar fuzzing --------------------------------------------
#
# Each example writes one mutated key file or sidecar and runs extract on a
# small clip embedded under the demo key. The mutations are built to be
# invalid: one that could still describe a usable key or sidecar is
# filtered out, so every run must fail with one JSON line and no PGM.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@pytest.fixture(scope="module")
def fuzz_stego(tmp_path_factory):
    """A 2-frame 16x16 clip embedded under the demo key: (dir, pub doc, priv doc, sidecar doc)."""
    root = tmp_path_factory.mktemp("readers")
    pub, priv = elgamal.ElGamalPublic(p=997, alpha=809, y=12), elgamal.ElGamalPrivate(x=420)
    elgamal.save_public_key(pub, root / "pub.json")
    elgamal.save_private_key(priv, root / "priv.json")
    write_clip(root / "cover.y4m", w=16, h=16, frames=2, seed=4)
    qr_args = []
    for i, level in enumerate("lmqh"):
        write_qr(root / f"qr_{level}.pgm", w=8, h=8, seed=50 + i)
        qr_args += [f"--qr-{level}", str(root / f"qr_{level}.pgm")]
    assert main(["embed", "--input", str(root / "cover.y4m"), "--output", str(root / "stego.y4m"),
                 *qr_args, "--pub", str(root / "pub.json"), "--seed", "9"]) == 0
    docs = [json.loads((root / name).read_text()) for name in ("pub.json", "priv.json", "stego.y4m.sidecar.json")]
    return root, *docs


def fuzz_extract(root, capsys, pub="pub.json", priv="priv.json", sidecar="stego.y4m.sidecar.json"):
    """Run extract on the fuzz clip; assert it failed cleanly with no PGM written; return the error line."""
    out_dir = root / "rec"
    capsys.readouterr()
    code = main(["extract", "--input", str(root / "stego.y4m"), "--output", str(out_dir),
                 "--pub", str(root / pub), "--priv", str(root / priv), "--sidecar", str(root / sidecar),
                 "--seed", "9"])
    assert code in (3, 4)
    error = assert_one_error_line(capsys, code)
    assert not list(out_dir.glob("*.pgm"))
    return error


@pytest.mark.parametrize("where", ["key file", "sidecar"])
def test_a_long_bad_decimal_makes_a_short_error_line(fuzz_stego, capsys, where):
    # The error quotes the start of a refused value and its length, not the whole of it.
    root, pub_doc, _, sidecar_doc = fuzz_stego
    bad = "7" * 199_999 + "x"
    if where == "key file":
        (root / "long_pub.json").write_text(json.dumps(set_path(pub_doc, ("y",), bad)))
        error = fuzz_extract(root, capsys, pub="long_pub.json")
    else:
        (root / "long.sidecar.json").write_text(json.dumps(set_path(sidecar_doc, ("frames", 1, "Q", 0), bad)))
        error = fuzz_extract(root, capsys, sidecar="long.sidecar.json")
    assert error["exit"] == 3
    assert "'777777" in error["message"] and "(200002 characters) is not a decimal string" in error["message"]
    assert len(json.dumps(error)) < 300


DELETE = object()


def set_path(doc, path, value):
    """A deep copy of doc with the node at path replaced, or deleted when value is DELETE."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def truncations(text):
    """Prefixes that lose at least the closing brace: never valid JSON."""
    return st.integers(0, len(text.rstrip()) - 1).map(lambda i: text[:i])


def non_ascii(text):
    """text's bytes with one 0xFF byte put in: never an ASCII file."""
    data = text.encode("ascii")
    return st.integers(0, len(data)).map(lambda i: data[:i] + b"\xff" + data[i:])


def deeply_nested(doc, path) -> bytes:
    """doc with the node at path made 200,000 arrays deep: valid JSON, too deep for json.loads."""
    mark = "deep-nesting-mark"
    return json.dumps(set_path(doc, path, mark)).replace(f'"{mark}"', "[" * 200_000 + "]" * 200_000).encode()


def decimal(value) -> int:
    """The integer a decimal string holds: ASCII digits after at most one "-" (docs/wire_format.md)."""
    if not (isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value)):
        raise ValueError(f"{value!r} is not a decimal string")
    return int(value)


def valid_key_pair(pub_doc, priv_doc) -> bool:
    """Whether the mutated documents still load as a matching, proved key pair."""
    try:
        p, alpha, y = (decimal(pub_doc[name]) for name in ("p", "alpha", "y"))
        x = decimal(priv_doc["x"])
        public = elgamal.ElGamalPublic(p, alpha, y)
        public.validate()
        elgamal.check_key_pair(public, elgamal.ElGamalPrivate(x))
    except (KeyError, TypeError, ValueError, CryptoError):
        return False
    return pub_doc.get("kind") == "elgamal-public" and priv_doc.get("kind") == "elgamal-private"


@st.composite
def key_file_mutations(draw, pub_doc, priv_doc):
    """(file name, mutated bytes) for one of the two key files."""
    name, doc = draw(st.sampled_from([("pub.json", pub_doc), ("priv.json", priv_doc)]))
    how = draw(st.sampled_from(["truncate", "non_ascii", "deep", "delete", "replace", "decimal"]))
    if how == "truncate":
        return name, draw(truncations(json.dumps(doc, indent=2) + "\n")).encode()
    if how == "non_ascii":
        return name, draw(non_ascii(json.dumps(doc, indent=2) + "\n"))
    field = draw(st.sampled_from(sorted(doc)))
    if how == "deep":
        return name, deeply_nested(doc, (field,))
    if how == "delete":
        value = DELETE
    elif how == "replace":
        value = draw(JSON_VALUES)
    else:  # another integer, as the writer would store it
        value = str(draw(st.integers(-2000, 2000) | st.integers()))
    mutated = set_path(doc, (field,), value)
    pair = (mutated, priv_doc) if name == "pub.json" else (pub_doc, mutated)
    assume(not valid_key_pair(*pair))
    return name, json.dumps(mutated).encode()


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is drained per example
@given(data=st.data())
def test_key_file_fuzz_fails_cleanly(fuzz_stego, capsys, data):
    root, pub_doc, priv_doc, _ = fuzz_stego
    name, content = data.draw(key_file_mutations(pub_doc, priv_doc))
    (root / f"bad_{name}").write_bytes(content)
    files = {"pub": f"bad_{name}"} if name == "pub.json" else {"priv": f"bad_{name}"}
    fuzz_extract(root, capsys, **files)


def in_range_decimal(value, p=997) -> bool:
    """Whether value is a decimal string that reads as a public value in (0, p)."""
    try:
        return 0 < decimal(value) < p
    except ValueError:
        return False


# Texts int() reads as the number they spell, none of them a decimal string.
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
NON_DECIMAL_FORMS = {
    "space": lambda text: f" {text}",
    "plus": lambda text: f"+{text}",
    "underscore": lambda text: f"{text[:-1]}_{text[-1]}",
    "arabic_indic": lambda text: text.translate(ARABIC_INDIC_DIGITS),
}


@pytest.mark.parametrize("form", NON_DECIMAL_FORMS)
@pytest.mark.parametrize("file", ["pub", "priv", "sidecar"])
def test_a_decimal_field_in_another_form_is_refused(fuzz_stego, capsys, file, form):
    # Each text spells the very value the writer stored, so int() would load
    # it unchanged; the files stay ASCII, json.dumps escaping the digits.
    root, pub_doc, priv_doc, side_doc = fuzz_stego
    if file == "sidecar":
        publics = side_doc["frames"][1]["Q"]
        index = next(i for i, value in enumerate(publics) if len(value) > 1)
        doc, path = side_doc, ("frames", 1, "Q", index)
        text = publics[index]
    else:
        doc, path = (pub_doc, ("p",)) if file == "pub" else (priv_doc, ("x",))
        text = doc[path[0]]
    (root / f"bad_{file}.json").write_text(json.dumps(set_path(doc, path, NON_DECIMAL_FORMS[form](text))))
    assert fuzz_extract(root, capsys, **{file: f"bad_{file}.json"})["exit"] == 3


@pytest.mark.parametrize("prefix", [b"\xff", b"[" * 200_000], ids=["non_ascii", "deep"])
@pytest.mark.parametrize("file", ["pub", "priv", "sidecar"])
def test_a_json_file_json_loads_cannot_take_is_refused_by_name(fuzz_stego, capsys, file, prefix):
    # A byte that is not ASCII, or nesting deeper than the parser recurses, is a format error.
    root = fuzz_stego[0]
    name = "stego.y4m.sidecar.json" if file == "sidecar" else f"{file}.json"
    (root / f"bad_{file}.json").write_bytes(prefix + (root / name).read_bytes())
    error = fuzz_extract(root, capsys, **{file: f"bad_{file}.json"})
    assert error["exit"] == 3
    assert str(root / f"bad_{file}.json") in error["message"]


@st.composite
def sidecar_mutations(draw, doc):
    """A mutated sidecar file, as bytes, that no reader may accept."""
    how = draw(st.sampled_from(["truncate", "non_ascii", "deep", "delete", "replace", "public", "cut"]))
    if how == "truncate":
        return draw(truncations(json.dumps(doc, indent=1) + "\n")).encode()
    if how == "non_ascii":
        return draw(non_ascii(json.dumps(doc, indent=1) + "\n"))
    frame = draw(st.integers(0, len(doc["frames"]) - 1))
    level = draw(st.sampled_from("LMQH"))
    publics = doc["frames"][frame][level]
    if how == "cut":  # losing two values loses at least 2 key bytes; at p = 997 at most 1 is spare
        start = draw(st.integers(0, len(publics) - 2))
        count = draw(st.integers(2, len(publics) - start))
        return json.dumps(set_path(doc, ("frames", frame, level), publics[:start] + publics[start + count:])).encode()
    if how == "public":
        index = draw(st.integers(0, len(publics) - 1))
        value = draw(JSON_VALUES | st.integers().map(str))
        assume(not in_range_decimal(value))
        return json.dumps(set_path(doc, ("frames", frame, level, index), value)).encode()
    # Every field. A replaced level list holds at most 3 values, at most 6 key
    # bytes at p = 997, short of the 8 each level needs.
    paths = [("format",), ("version",), ("video",), ("video", "width"), ("video", "height"),
             ("video", "frame_count"), ("video", "frame_rate"), ("qr",), ("qr", "width"), ("qr", "height"),
             ("plain_len",), ("key_fingerprint",), ("frames",), ("frames", frame), ("frames", frame, level)]
    path = draw(st.sampled_from(paths))
    if how == "deep":
        return deeply_nested(doc, path)
    if how == "delete":
        assume(path != ("video", "frame_rate"))  # a sidecar without one reads with the Y4M default
        return json.dumps(set_path(doc, path, DELETE)).encode()
    value = draw(JSON_VALUES)
    node = doc
    for step in path:
        node = node[step]
    assume(value != node)
    # another frame rate, or another seed's fingerprint (a mismatch only warns), is a usable sidecar
    usable = {("video", "frame_rate"): "[0-9]+:[0-9]+", ("key_fingerprint",): "[0-9a-f]{16}"}.get(path)
    assume(not (usable and isinstance(value, str) and re.fullmatch(usable, value)))
    return json.dumps(set_path(doc, path, value)).encode()


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is drained per example
@given(data=st.data())
def test_sidecar_fuzz_fails_cleanly(fuzz_stego, capsys, data):
    root, _, _, doc = fuzz_stego
    (root / "bad.sidecar.json").write_bytes(data.draw(sidecar_mutations(doc)))
    fuzz_extract(root, capsys, sidecar="bad.sidecar.json")


# --- container reader fuzzing ------------------------------------------------
#
# Each example writes one mutated Y4M, raw or PGM file and runs the command
# that reads it first. As above, every mutation is built to be refused: one
# that could still read as a usable container is filtered out.

FUZZ_W, FUZZ_H = 36, 28
FUZZ_FRAME = FUZZ_W * FUZZ_H * 3 // 2


def assert_refused(capsys, code, output):
    """The run failed with exit 2 or 3, one JSON error line and no output file."""
    assert code in (2, 3)
    assert_one_error_line(capsys, code)
    assert not output.exists()


def no_separator(size=6):
    """Bytes that keep a header token one token: no space, newline or comment mark."""
    return st.binary(min_size=1, max_size=size).filter(lambda b: not set(b) & set(b" \t\n\r\x0b\x0c#"))


def y4m_value_refused(tag: str, value: bytes) -> bool:
    """Whether a header refuses value for tag, whatever the body (docs/wire_format.md "Containers")."""
    text = value.decode("ascii", "replace")
    if tag in "WH":  # even values of 2000 and up declare more than the 2-frame body holds
        return not text.isdigit() or int(text) % 2 == 1 or not 0 < int(text) < 2000
    if tag in "FA":
        return not re.fullmatch(r"[0-9]+:[0-9]+", text)
    if tag == "I":
        return text not in ("p", "t", "b", "m", "?")
    return text not in ("420", "420jpeg", "420paldv", "420mpeg2")


@st.composite
def y4m_mutations(draw, data):
    """A mutated 2-frame Y4M clip that no reader may accept."""
    head = data.index(b"\n") + 1
    how = draw(st.sampled_from(["truncate", "token", "delete", "magic", "marker", "trail"]))
    if how == "truncate":  # anywhere but the end of the header or of a frame
        cut = draw(st.integers(0, len(data) - 1))
        assume((cut - head) % (6 + FUZZ_FRAME) != 0 or cut < head)
        return data[:cut]
    fields = data[: head - 1].split(b" ")
    if how == "delete":
        del fields[draw(st.sampled_from([1, 2]))]  # W or H
        return b" ".join(fields) + data[head - 1 :]
    if how == "token":
        index = draw(st.integers(1, len(fields) - 1))
        value = draw(no_separator() | st.integers(0, 10**30).map(lambda v: str(v).encode()))
        assume(y4m_value_refused(chr(fields[index][0]), value))
        fields[index] = fields[index][:1] + value
        return b" ".join(fields) + data[head - 1 :]
    if how == "magic":
        magic = draw(no_separator(12))
        assume(magic != b"YUV4MPEG2")
        return magic + data[len(b"YUV4MPEG2") :]
    if how == "marker":
        at = head + draw(st.sampled_from([0, 1])) * (6 + FUZZ_FRAME)
        marker = draw(st.binary(min_size=5, max_size=5))
        assume(marker != b"FRAME")
        return data[:at] + marker + data[at + 5 :]
    # Trailing bytes shorter than a whole FRAME line plus frame never read as a frame.
    return data + draw(st.binary(min_size=1, max_size=40) | st.binary(max_size=40).map(lambda b: b"FRAME" + b))


@pytest.fixture(scope="module")
def fuzz_containers(tmp_path_factory):
    """(dir, Y4M bytes of a 2-frame 36x28 clip, bytes of an 18x14 PGM)."""
    root = tmp_path_factory.mktemp("containers")
    write_clip(root / "clip.y4m", w=FUZZ_W, h=FUZZ_H, frames=2, seed=6)
    write_qr(root / "qr.pgm", w=FUZZ_W // 2, h=FUZZ_H // 2, seed=60)
    return root, (root / "clip.y4m").read_bytes(), (root / "qr.pgm").read_bytes()


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is drained per example
@given(data=st.data())
def test_y4m_fuzz_fails_cleanly(fuzz_containers, capsys, data):
    root, clip, _ = fuzz_containers
    (root / "bad.y4m").write_bytes(data.draw(y4m_mutations(clip)))
    output = root / "out.y4m"
    capsys.readouterr()
    assert_refused(capsys, main(["attack", "--input", str(root / "bad.y4m"), "--output", str(output)]), output)


@st.composite
def raw_mutations(draw):
    """(file length, --width/--height arguments) that no raw reader may accept."""
    how = draw(st.sampled_from(["length", "dims", "missing"]))
    if how == "length":  # not a whole number of 36x28 frames
        length = draw(st.integers(1, 3 * FUZZ_FRAME + 1))
        assume(length % FUZZ_FRAME)
        return length, ["--width", str(FUZZ_W), "--height", str(FUZZ_H)]
    length = draw(st.integers(0, 2 * FUZZ_FRAME))
    if how == "missing":
        return length, draw(st.sampled_from([[], ["--width", str(FUZZ_W)], ["--height", str(FUZZ_H)]]))
    width, height = draw(st.integers(-(2**40), 2**40)), draw(st.integers(-(2**40), 2**40))
    assume(width <= 0 or height <= 0 or width % 2 or height % 2)
    return length, ["--width", str(width), "--height", str(height)]


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is drained per example
@given(raw_mutations())
def test_raw_fuzz_fails_cleanly(fuzz_containers, capsys, mutation):
    root, clip, _ = fuzz_containers
    length, dims = mutation
    (root / "bad.yuv").write_bytes((clip * 3)[:length])
    output = root / "out.y4m"
    capsys.readouterr()
    code = main(["attack", "--input", str(root / "bad.yuv"), "--output", str(output), *dims])
    assert_refused(capsys, code, output)


@st.composite
def pgm_mutations(draw, data):
    """A mutated 18x14 PGM that no reader may accept."""
    how = draw(st.sampled_from(["truncate", "magic", "field"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    magic, size, maxval, pixels = data.split(b"\n", 3)
    width, height = size.split(b" ")
    if how == "magic":
        magic = draw(no_separator())
        assume(magic != b"P5")
    else:
        index = draw(st.integers(0, 2))
        value = draw(no_separator() | st.integers().map(lambda v: str(v).encode()))
        number = int(value) if value.isdigit() else None  # a header field is ASCII digits
        # Any other size that fits the 252 pixel bytes reads; embed then refuses it as capacity.
        refused = number is None or (number != 255 if index == 2 else number <= 0 or number >= 300)
        assume(refused)
        fields = [width, height, maxval]
        fields[index] = value
        width, height, maxval = fields
    return b"%s\n%s %s\n%s\n" % (magic, width, height, maxval) + pixels


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is drained per example
@given(data=st.data())
def test_pgm_fuzz_fails_cleanly(fuzz_containers, keys, capsys, data):
    root, _, qr = fuzz_containers
    (root / "bad.pgm").write_bytes(data.draw(pgm_mutations(qr)))
    pub, _ = keys
    output = root / "out.y4m"
    qr_args = [arg for level in "lmqh" for arg in (f"--qr-{level}", str(root / ("bad.pgm" if level == "l" else "qr.pgm")))]
    capsys.readouterr()
    code = main(["embed", "--input", str(root / "clip.y4m"), "--output", str(output), *qr_args,
                 "--pub", str(pub), "--seed", "9"])
    assert_refused(capsys, code, output)


def attack_seed(ws, capsys, *seed_args):
    """The seed the attack command reports for these arguments."""
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(ws["tmp"] / "noisy.y4m"), *seed_args]) == 0
    return int(re.search(r"seed: (\d+)\)", capsys.readouterr().out).group(1))


@pytest.mark.parametrize(
    "text", ["٤٢", "４２", "4_2", " 42", "42 ", "+42", "0b101", "0o52", "0x_2a", "0x", "-0x2a"]
)
def test_seed_text_that_is_not_ascii_decimal_or_hex_is_a_passphrase(workspace, capsys, monkeypatch, text):
    # int(text, 0) would read each of these as an integer seed.
    passphrase = StegoKey.from_passphrase(text).seed
    assert attack_seed(workspace, capsys, f"--seed={text}") == passphrase
    monkeypatch.setenv("QRSTEG_SEED", text)
    assert attack_seed(workspace, capsys) == passphrase


@pytest.mark.parametrize("text,seed", [("42", 42), ("0042", 42), ("0x2a", 42), ("0X2A", 42),
                                       (str(2**64 - 1), 2**64 - 1),
                                       pytest.param("0" * 4400 + "42", 42, id="4400-zeros-then-42")])
def test_ascii_decimal_and_hex_seed_text_is_an_integer(workspace, capsys, monkeypatch, text, seed):
    assert attack_seed(workspace, capsys, "--seed", text) == seed
    monkeypatch.setenv("QRSTEG_SEED", text)
    assert attack_seed(workspace, capsys) == seed


@pytest.mark.parametrize("text", ["-1", str(2**64), "0x10000000000000000",
                                  pytest.param("9" * 4301, id="4301-nines")])
def test_integer_seed_outside_64_bits_is_a_usage_error(workspace, capsys, monkeypatch, text):
    ws = workspace
    out = ws["tmp"] / "noisy.y4m"
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(out), f"--seed={text}"]) == 2
    assert_one_error_line(capsys, 2)
    monkeypatch.setenv("QRSTEG_SEED", text)
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(out)]) == 2
    assert_one_error_line(capsys, 2)
    assert not out.exists()


# Free text, and integer seed forms of up to 25 digits or past int()'s 4,300-digit limit.
SEED_TEXTS = (st.text(max_size=12)
              | st.from_regex(r"-?[0-9]{1,25}|0[xX][0-9a-fA-F]{1,20}", fullmatch=True)
              | st.tuples(st.integers(0, 5000), st.integers(0, 2**66)).map(lambda t: "0" * t[0] + str(t[1]))
              | st.integers(4200, 4400).map(lambda n: "9" * n))


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is drained per example
@given(text=SEED_TEXTS)
def test_seed_text_fuzz(workspace, capsys, text):
    # Integer form (docs/wire_format.md "Stego key") gives its value or exit 2; other text is hashed.
    if re.fullmatch("-?[0-9]+|0[xX][0-9a-fA-F]+", text):
        # Decimal reads a decimal text of any length; int() stops at sys.get_int_max_str_digits()
        value = int(text, 16) if text[:2] in ("0x", "0X") else Decimal(text)
        seed = int(value) if 0 <= value < 2**64 else None
    else:
        seed = StegoKey.from_passphrase(text).seed
    if seed is None:
        capsys.readouterr()
        assert main(["attack", "--input", str(workspace["cover"]), "--output", str(workspace["tmp"] / "noisy.y4m"),
                     f"--seed={text}"]) == 2
        assert_one_error_line(capsys, 2)
    else:
        assert attack_seed(workspace, capsys, f"--seed={text}") == seed


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is drained per example
@given(text=st.text(max_size=6) | st.integers(-20, 9000).map(str) | st.from_regex("-?[0-9]{1,8}", fullmatch=True))
def test_bits_text_fuzz(tmp_path, capsys, text):
    # --paper-fidelity does no key search, so only the flag's own check decides the exit code.
    capsys.readouterr()
    code = main(["keygen", "--pub", str(tmp_path / "k.pub"), "--priv", str(tmp_path / "k.priv"), "--force",
                 "--paper-fidelity", "--seed", "1", f"--bits={text}"])
    in_range = re.fullmatch("-?[0-9]+", text) and elgamal.MIN_KEY_BITS <= int(text) <= elgamal.MAX_KEY_BITS
    assert code == (0 if in_range else 2)
    if not in_range:
        assert_one_error_line(capsys, 2)


@pytest.mark.parametrize(
    "flag,value",
    [("--bits", "2_56"), ("--bits", "٣٢"), ("--width", "١٦"), ("--height", "+16"), ("--attack-seeds", " 1"),
     ("--max-frames", "１"), ("--robust-frames", "1_0")],
)
def test_integer_flags_take_ascii_decimal_only(tmp_path, capsys, flag, value):
    # int() would read each value as a count or size the command then uses.
    dataset = one_clip_dataset(tmp_path)
    raw = tmp_path / "one.yuv"
    raw.write_bytes(bytes(16 * 16 * 3 // 2))
    out = tmp_path / "out.y4m"
    argv = {
        "--bits": ["keygen", "--pub", str(tmp_path / "k.pub"), "--priv", str(tmp_path / "k.priv"), "--seed", "1"],
        "--width": ["attack", "--input", str(raw), "--output", str(out), "--height", "16"],
        "--height": ["attack", "--input", str(raw), "--output", str(out), "--width", "16"],
    }.get(flag, ["bench", "--input", str(dataset), "--paper-fidelity", "--seed", "0", "--attacks", "sp:0.1",
                 "--report", str(tmp_path / "bench.csv")])
    before = set(tmp_path.rglob("*"))
    assert main([*argv, f"{flag}={value}"]) == 2
    assert assert_one_error_line(capsys, 2)["error"] == "UsageError"
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("spec", ["sp:0_1", "gauss:0:1_0", "sp:٠.١", "sp: 0.1", "sp:+0.1"])
def test_attack_and_bench_take_ascii_decimal_parameters_only(workspace, capsys, spec):
    # float() would read each parameter: "sp:0_1" as density 1, every sample replaced.
    ws = workspace
    out = ws["tmp"] / "noisy.y4m"
    assert main(["attack", "--input", str(ws["cover"]), "--output", str(out), "--attack", spec]) == 3
    assert "bad attack parameter" in assert_one_error_line(capsys, 3)["message"]
    assert not out.exists()
    assert main(["bench", "--input", str(one_clip_dataset(ws["tmp"])), "--paper-fidelity", "--seed", "0",
                 "--attacks", spec]) == 3
    assert_one_error_line(capsys, 3)


def test_extract_checks_each_original_against_the_sidecar_before_any_keystream(workspace, capsys, monkeypatch):
    ws = workspace
    stego = ws["tmp"] / "stego.y4m"
    assert main(embed_args(ws, stego)) == 0
    small = ws["tmp"] / "small.pgm"
    write_qr(small, w=10, h=10)
    calls = []
    monkeypatch.setattr(elgamal, "replay_keystreams", lambda *args: calls.append(args))
    capsys.readouterr()
    out_dir = ws["tmp"] / "rec"
    assert main(["extract", "--input", str(stego), "--output", str(out_dir), "--pub", str(ws["pub"]),
                 "--priv", str(ws["priv"]), "--seed", "1234", "--qr-m", str(small)]) == 3
    message = assert_one_error_line(capsys, 3)["message"]
    assert str(small) in message and "10x10" in message and "16x16" in message
    assert calls == []
    assert not out_dir.exists()
