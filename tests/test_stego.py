import dataclasses
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsteg import elgamal, stego, synth
from qrsteg.bitplane import PackedPayload, pack, payload_from_bits, unpack
from qrsteg.elgamal import ElGamalPrivate, ElGamalPublic
from qrsteg.errors import CapacityError, CryptoError, FormatError, ShapeError
from qrsteg.permute import Splitmix64, StegoKey, keyed_permutation
from qrsteg.quality import QualityReport, mse
from qrsteg.stego import (
    FrameCoder,
    FramePayload,
    Sidecar,
    StegoConfig,
    clip_cover,
    embed_video,
    extract_video,
    get_lsb,
    new_sidecar,
    prepare_payload,
    set_lsb,
)
from qrsteg.videoio import FrameYuv420, VideoMeta, write_y4m
from qrsteg.wavelet import fwd_haar_int, inv_haar_int

PUB = ElGamalPublic(p=997, alpha=809, y=12)
PRIV = ElGamalPrivate(x=420)


def make_cfg(seed=0xA5A5):
    return StegoConfig(key=StegoKey(seed=seed), public=PUB, private=PRIV)


def gray_frame(w=16, h=16, value=128):
    return FrameYuv420(
        y=np.full((h, w), value, dtype=np.uint8),
        u=np.full((h // 2, w // 2), value, dtype=np.uint8),
        v=np.full((h // 2, w // 2), value, dtype=np.uint8),
    )


def test_cif_coder_build_raises_no_overflow_warnings():
    # Scalar numpy uint64 arithmetic warns on wraparound; the array draws must not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coder = FrameCoder(StegoKey(seed=2**64 - 1), 352, 288)
    assert coder.capacity_bits == 176 * 144


def random_payload(coder, seed):
    rng = np.random.default_rng(seed)
    return {
        level: rng.integers(0, 2, coder.capacity_bits).astype(np.uint8)
        for level in stego.QR_LEVELS
    }


def bare_payload(bits):
    return FramePayload(bundles={}, bits=bits)


def reference_cipher_bits(plane, cfg, level, frame_index):
    """The byte-domain reference: pack the plane, stream_encrypt it, unpack the plane's bits."""
    bundle = elgamal.stream_encrypt(pack(plane).data, cfg.public, stego.payload_rng(cfg.key, level, frame_index))
    return np.unpackbits(np.frombuffer(bundle.ciphertext, dtype=np.uint8), count=plane.bits.size)


def test_set_get_lsb_hand_values():
    assert set_lsb(-5, 0) == -6
    assert get_lsb(-5) == 1
    assert set_lsb(10, 0) == 10
    assert set_lsb(10, 1) == 11


def test_set_get_lsb_exhaustive_scan():
    for v in range(-512, 513):
        for b in (0, 1):
            w = set_lsb(v, b)
            assert get_lsb(w) == b
            assert abs(w - v) <= 1
            assert get_lsb(v) in (0, 1)


def test_set_lsb_never_moves_floor_half():
    # This is what keeps detail coefficients stable under re-embedding.
    for v in range(-512, 513):
        for b in (0, 1):
            assert set_lsb(v, b) // 2 == v // 2


def floor_set_lsb(value, bit):
    """The floor form set_lsb must equal."""
    return 2 * (value // 2) + bit


def floor_get_lsb(value):
    """The floor form get_lsb must equal."""
    return value - 2 * (value // 2)


@pytest.mark.parametrize("dtype,values", [
    (np.int16, np.arange(-511, 512)),  # every value a detail band can hold after an edit
    (np.uint8, np.arange(0, 256)),
    (np.int64, np.arange(-511, 512)),
])
def test_lsb_bit_forms_equal_the_floor_forms_on_arrays(dtype, values):
    v = values.astype(dtype)
    assert get_lsb(v).dtype == dtype
    assert np.array_equal(get_lsb(v), floor_get_lsb(v))
    for bit in (0, 1):
        bits = np.full(v.shape, bit, dtype=dtype)
        got = set_lsb(v, bits)
        assert got.dtype == dtype
        assert np.array_equal(got, floor_set_lsb(v, bits))


def test_lsb_bit_forms_equal_the_floor_forms_at_the_uint8_ends():
    for value in (0, 1, 254, 255):
        v = np.array([value], dtype=np.uint8)
        for bit in (0, 1):
            assert set_lsb(v, np.uint8(bit)).tolist() == floor_set_lsb(v, np.uint8(bit)).tolist()
            assert set_lsb(v, np.array([bit], dtype=np.uint8)).dtype == np.uint8


def test_lsb_bit_forms_equal_the_floor_forms_on_python_ints():
    for v in (*range(-600, 600), -(2**70) - 1, 2**70 + 1):
        assert get_lsb(v) == floor_get_lsb(v)
        for bit in (0, 1):
            assert set_lsb(v, bit) == floor_set_lsb(v, bit)


def test_all_gray_zero_payload_yields_even_carriers():
    coder = FrameCoder(StegoKey(seed=7), 16, 16)
    zeros = {lvl: np.zeros(coder.capacity_bits, dtype=np.uint8) for lvl in stego.QR_LEVELS}
    out = coder.embed(gray_frame(), bare_payload(zeros))
    bands = fwd_haar_int(out.y)
    assert not (bands.hl % 2).any() and not (bands.hh % 2).any()
    assert not (out.u % 2).any() and not (out.v % 2).any()
    # constant gray is untouched by an all-zero write
    assert np.array_equal(out.y, gray_frame().y)


def test_embedding_existing_lsbs_changes_nothing_but_clipping():
    rng = np.random.default_rng(3)
    frame = FrameYuv420(
        y=rng.integers(0, 256, (16, 16), dtype=np.uint8),
        u=rng.integers(0, 256, (8, 8), dtype=np.uint8),
        v=rng.integers(0, 256, (8, 8), dtype=np.uint8),
    )
    coder = FrameCoder(StegoKey(seed=11), 16, 16)
    clipped = clip_cover(frame)
    out = coder.embed(frame, bare_payload(coder.extract(clipped)))
    assert np.array_equal(out.y, clipped.y)
    assert np.array_equal(out.u, frame.u) and np.array_equal(out.v, frame.v)


def test_placement_matches_two_step_wire_rule():
    # Wire format, payload path steps 4-5: permuted[t] = cipher_bits[shuffle[t]],
    # then carrier element order[t] takes permuted[t] in its LSB. At 36x28 each
    # level carries 252 bits, so the ciphertext's last byte is half transmitted.
    cfg = make_cfg(seed=0x3628)
    rng = np.random.default_rng(41)
    frame = FrameYuv420(
        y=rng.integers(0, 256, (28, 36), dtype=np.uint8),
        u=rng.integers(0, 256, (14, 18), dtype=np.uint8),
        v=rng.integers(0, 256, (14, 18), dtype=np.uint8),
    )
    coder = FrameCoder(cfg.key, 36, 28)
    assert coder.capacity_bits == 252
    qr_set = {
        lvl: synth.qr_like_plane(18, 14, seed=50 + i, module=1)
        for i, lvl in enumerate(stego.QR_LEVELS)
    }
    payload = prepare_payload(qr_set, cfg, 0, coder)
    orders = {
        lvl: (
            keyed_permutation(cfg.key, stego.PAYLOAD_TAGS[lvl], 252),
            keyed_permutation(cfg.key, stego.CARRIER_TAGS[lvl], 252),
        )
        for lvl in stego.QR_LEVELS
    }

    def carriers(f, bands):
        return {"L": bands.hl, "M": bands.hh, "Q": f.u.astype(np.int64), "H": f.v.astype(np.int64)}

    bands = fwd_haar_int(clip_cover(frame).y)
    expected = carriers(frame, bands)
    for lvl, carrier in expected.items():
        shuffle, order = orders[lvl]
        cipher_bits = reference_cipher_bits(qr_set[lvl], cfg, lvl, 0)
        assert np.array_equal(payload.bits[lvl], cipher_bits)
        flat = carrier.reshape(-1)
        flat[order] = set_lsb(flat[order], cipher_bits[shuffle])
    out = coder.embed(frame, payload)
    assert np.array_equal(out.y, inv_haar_int(bands))
    assert np.array_equal(out.u, expected["Q"]) and np.array_equal(out.v, expected["H"])

    for probe in (out, frame):  # the stego frame, then arbitrary carrier LSBs
        got = coder.extract(probe)
        for lvl, carrier in carriers(probe, fwd_haar_int(probe.y)).items():
            shuffle, order = orders[lvl]
            cipher_bits = np.empty(252, dtype=np.uint8)
            cipher_bits[shuffle] = get_lsb(carrier.reshape(-1)[order])
            assert np.array_equal(got[lvl], cipher_bits), lvl
    stego_bits = coder.extract(out)
    assert all(np.array_equal(stego_bits[lvl], payload.bits[lvl]) for lvl in stego.QR_LEVELS)


def test_frame_capacity_cif():
    coder = FrameCoder(StegoKey(seed=1), 352, 288)
    assert coder.capacity_bits == 176 * 144
    assert 4 * coder.capacity_bits == 101_376


def test_coder_roundtrip_random_frames():
    rng = np.random.default_rng(17)
    for trial in range(20):
        w, h = int(rng.integers(2, 16)) * 2, int(rng.integers(2, 16)) * 2
        coder = FrameCoder(StegoKey(seed=int(rng.integers(0, 2**63))), w, h)
        frame = FrameYuv420(
            y=rng.integers(0, 256, (h, w), dtype=np.uint8),
            u=rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
            v=rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
        )
        bits = random_payload(coder, trial)
        out = coder.embed(frame, bare_payload(bits))
        got = coder.extract(out)
        for level in stego.QR_LEVELS:
            assert np.array_equal(got[level], bits[level]), level


def test_distortion_bounds():
    rng = np.random.default_rng(23)
    coder = FrameCoder(StegoKey(seed=99), 32, 32)
    frame = FrameYuv420(
        y=rng.integers(0, 256, (32, 32), dtype=np.uint8),
        u=rng.integers(0, 256, (16, 16), dtype=np.uint8),
        v=rng.integers(0, 256, (16, 16), dtype=np.uint8),
    )
    out = coder.embed(frame, bare_payload(random_payload(coder, 1)))
    ref = clip_cover(frame)
    assert np.abs(out.y.astype(int) - ref.y.astype(int)).max() <= 2
    assert np.abs(out.u.astype(int) - ref.u.astype(int)).max() <= 1
    assert np.abs(out.v.astype(int) - ref.v.astype(int)).max() <= 1


def test_wrong_key_extracts_uncorrelated_bits():
    coder = FrameCoder(StegoKey(seed=555), 128, 128)
    frame = gray_frame(128, 128)
    # gray carriers have uniform LSBs only after embedding random bits
    bits = random_payload(coder, 5)
    out = coder.embed(frame, bare_payload(bits))
    other = FrameCoder(StegoKey(seed=556), 128, 128)
    got = other.extract(out)
    total = agree = 0
    for level in stego.QR_LEVELS:
        agree += int((got[level] == bits[level]).sum())
        total += bits[level].size
    assert total >= 10_000
    assert abs(agree / total - 0.5) < 0.03


def test_capacity_validation():
    cfg = make_cfg()
    coder = FrameCoder(cfg.key, 16, 16)
    qr = synth.qr_like_plane(8, 8, seed=1)
    with pytest.raises(CapacityError):
        prepare_payload({"L": qr, "M": qr, "Q": qr}, cfg, 0, coder)  # missing H
    bad = synth.qr_like_plane(4, 8, seed=1)
    with pytest.raises(CapacityError):
        prepare_payload({"L": bad, "M": qr, "Q": qr, "H": qr}, cfg, 0, coder)
    bits = random_payload(coder, 0)
    with pytest.raises(CapacityError, match="level M carries 63 bits, carrier holds exactly 64"):
        coder.embed(gray_frame(), bare_payload({**bits, "M": bits["M"][:-1]}))
    del bits["H"]
    with pytest.raises(CapacityError, match="level H carries 0 bits"):
        coder.embed(gray_frame(), bare_payload(bits))


def test_video_roundtrip_with_sidecar():
    cfg = make_cfg(seed=0xBEEF)
    meta, frames = synth.gradient_video(32, 32, 5, seed=8)
    qr_set = {lvl: synth.qr_like_plane(16, 16, seed=10 + i) for i, lvl in enumerate(stego.QR_LEVELS)}
    coder = FrameCoder(cfg.key, 32, 32)
    sidecar = new_sidecar(cfg, coder, meta.frame_rate)
    report = QualityReport()
    stego_frames = list(embed_video(frames, qr_set, cfg, coder, sidecar, report))
    assert len(stego_frames) == 5
    assert len(sidecar.frames) == 5
    assert len(report.frame_mse) == 5 and report.capacity() == 1.0

    recovered = list(extract_video(stego_frames, cfg, sidecar))
    assert len(recovered) == 5
    for i, result in enumerate(recovered):
        for lvl in stego.QR_LEVELS:
            assert np.array_equal(result.planes[lvl].bits, qr_set[lvl].bits), (i, lvl)


def test_video_roundtrip_survives_y4m_serialization(tmp_path):
    import io

    from qrsteg.videoio import read_y4m, write_y4m

    cfg = make_cfg(seed=42)
    meta, frames = synth.moving_block_video(24, 16, 3, seed=2)
    qr_set = {lvl: synth.qr_like_plane(12, 8, seed=i) for i, lvl in enumerate(stego.QR_LEVELS)}
    coder = FrameCoder(cfg.key, 24, 16)
    sidecar = new_sidecar(cfg, coder, meta.frame_rate)
    buf = io.BytesIO()
    write_y4m(meta, embed_video(frames, qr_set, cfg, coder, sidecar, QualityReport()), buf)
    buf.seek(0)
    _, loaded = read_y4m(buf)
    for result in extract_video(loaded, cfg, sidecar):
        for lvl in stego.QR_LEVELS:
            assert np.array_equal(result.planes[lvl].bits, qr_set[lvl].bits)


def test_fresh_keystreams_per_frame_and_level():
    cfg = make_cfg(seed=77)
    _, frames = synth.gradient_video(16, 16, 2, seed=3)
    qr_set = {lvl: synth.qr_like_plane(8, 8, seed=4) for lvl in stego.QR_LEVELS}
    coder = FrameCoder(cfg.key, 16, 16)
    sidecar = new_sidecar(cfg, coder)
    list(embed_video(frames, qr_set, cfg, coder, sidecar, QualityReport()))
    seen = {tuple(publics) for record in sidecar.frames for publics in record.values()}
    assert len(seen) == 8  # 2 frames x 4 levels, all distinct draws


@pytest.mark.parametrize("bits", [None, 64, 256], ids=["p997", "64bit", "256bit"])
def test_sender_keys_equal_the_receivers_regenerated_keystreams(bits):
    # The receiver's d^x rule is the reference: bench decodes with
    # FramePayload.keys and extract with frame_keystreams, which replays the
    # sender's exponents, so both must give regenerate_keystream's bytes.
    if bits is None:
        pub, priv = PUB, PRIV
    else:
        p, alpha = elgamal.generate_key_params(bits, Splitmix64(bits))
        pub, priv = elgamal.keygen(p, alpha, Splitmix64(1))
    cfg = StegoConfig(key=StegoKey(seed=0x5EED), public=pub, private=priv)
    _, frames = synth.gradient_video(36, 28, 3, seed=5)  # 252 payload bits: a partial last byte
    qr_set = {lvl: synth.qr_like_plane(18, 14, seed=i) for i, lvl in enumerate(stego.QR_LEVELS)}
    coder = FrameCoder(cfg.key, 36, 28)
    sidecar = new_sidecar(cfg, coder)
    keys = []
    list(embed_video(frames, qr_set, cfg, coder, sidecar, QualityReport(), keys))
    assert len(keys) == len(sidecar.frames) == 3
    replayed = stego.frame_keystreams(sidecar.frames, cfg, sidecar.plain_len)
    for index, record in enumerate(sidecar.frames):
        reference = {lvl: elgamal.regenerate_keystream(tuple(record[lvl]), pub.p, priv, sidecar.plain_len)
                     for lvl in stego.QR_LEVELS}
        assert keys[index] == reference == replayed[index]
        bundles = prepare_payload(qr_set, cfg, index, coder).bundles
        assert {lvl: bundles[lvl].key_bytes for lvl in stego.QR_LEVELS} == keys[index]


@pytest.mark.parametrize("bits", [None, 64, 256], ids=["p997", "64bit", "256bit"])
def test_prepare_payload_equals_the_byte_domain_reference(bits):
    # Plane bit b XOR keystream bit b, MSB-first, is the first n bits of
    # stream_encrypt(pack(plane)); 252 bits leave the last byte half used.
    if bits is None:
        pub, priv = PUB, PRIV
    else:
        p, alpha = elgamal.generate_key_params(bits, Splitmix64(bits))
        pub, priv = elgamal.keygen(p, alpha, Splitmix64(1))
    cfg = StegoConfig(key=StegoKey(seed=0xB17), public=pub, private=priv)
    coder = FrameCoder(cfg.key, 36, 28)
    qr_set = {lvl: synth.qr_like_plane(18, 14, seed=20 + i) for i, lvl in enumerate(stego.QR_LEVELS)}
    for index in (0, 5):
        payload = prepare_payload(qr_set, cfg, index, coder)
        for lvl in stego.QR_LEVELS:
            assert np.array_equal(payload.bits[lvl], reference_cipher_bits(qr_set[lvl], cfg, lvl, index))


def embedded_64_bit_clip(frame_count=2):
    """(cfg, stego frames, sidecar, qr_set) of a small clip under a 64-bit key."""
    p, alpha = elgamal.generate_key_params(64, Splitmix64(64))
    pub, priv = elgamal.keygen(p, alpha, Splitmix64(1))
    cfg = StegoConfig(key=StegoKey(seed=0x5EED), public=pub, private=priv)
    _, frames = synth.gradient_video(36, 28, frame_count, seed=5)
    qr_set = {lvl: synth.qr_like_plane(18, 14, seed=i) for i, lvl in enumerate(stego.QR_LEVELS)}
    coder = FrameCoder(cfg.key, 36, 28)
    sidecar = new_sidecar(cfg, coder)
    out = list(embed_video(frames, qr_set, cfg, coder, sidecar, QualityReport()))
    return cfg, out, sidecar, qr_set


def test_extract_raises_d_to_the_x_only_for_a_public_it_cannot_replay(monkeypatch):
    # Above the uint64 bound the receiver proves each level's public values against
    # the sender's replayed exponents; only a level that fails the proof costs d^x,
    # once for every value it holds.
    cfg, out, sidecar, qr_set = embedded_64_bit_clip()
    publics = {d for record in sidecar.frames for values in record.values() for d in values}
    powers = []
    monkeypatch.setattr(elgamal, "pow", lambda *args: powers.append(args) or pow(*args), raising=False)

    def d_to_the_x_count():
        powers.clear()
        results = list(extract_video(out, cfg, sidecar))
        return sum(base in publics and exp == cfg.private.x for base, exp, _ in powers), results

    count, results = d_to_the_x_count()
    assert count == 0
    assert all(np.array_equal(r.planes[lvl].bits, qr_set[lvl].bits) for r in results for lvl in qr_set)
    d = sidecar.frames[1]["M"][0]
    sidecar.frames[1]["M"][0] = d % (cfg.public.p - 1) + 1
    publics.add(sidecar.frames[1]["M"][0])
    count, results = d_to_the_x_count()
    assert count == len(sidecar.frames[1]["M"])
    assert not np.array_equal(results[1].planes["M"].bits, qr_set["M"].bits)


def test_extract_refuses_a_private_key_of_another_pair():
    # Unchecked, matching publics would replay to the right keystream and the
    # rest to noise, so the pair is proved when the config is built, before
    # any frame can be decoded.
    cfg, *_ = embedded_64_bit_clip(frame_count=1)
    with pytest.raises(CryptoError, match=r"does not match the public key"):
        dataclasses.replace(cfg, private=ElGamalPrivate(cfg.private.x + 1))


def test_stego_config_holds_only_a_proved_key():
    cfg = StegoConfig(key=StegoKey(seed=1), public=PUB, private=PRIV)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.private = ElGamalPrivate(PRIV.x + 1)
    with pytest.raises(CryptoError, match="does not match the public key"):
        StegoConfig(key=StegoKey(seed=1), public=PUB, private=ElGamalPrivate(PRIV.x + 1))
    with pytest.raises(CryptoError, match="p = 1003 is not prime"):
        StegoConfig(key=StegoKey(seed=1), public=ElGamalPublic(p=1003, alpha=809, y=12))


@pytest.mark.parametrize("width,height", [(16, 16), (3, 3), (18, 14)])
def test_decrypt_streams_equals_the_byte_domain_decode(width, height):
    # Oracle: pack the carried bits MSB-first, XOR the bytes with the
    # keystream, unpack the first width*height bits. Random keys fill the
    # bits past the payload, so a partial last byte is covered too.
    rng = np.random.default_rng(width * 100 + height)
    n = width * height
    streams = {lvl: rng.integers(0, 2, n, dtype=np.uint8) for lvl in stego.QR_LEVELS}
    keys = {lvl: rng.bytes((n + 7) // 8) for lvl in stego.QR_LEVELS}
    result = stego.decrypt_streams(streams, keys, width, height)
    for lvl in stego.QR_LEVELS:
        plain = elgamal.xor_bytes(payload_from_bits(streams[lvl]).data, keys[lvl])
        expected = unpack(PackedPayload(bit_count=n, data=plain), width, height)
        assert np.array_equal(result.planes[lvl].bits, expected.bits), lvl


def test_decrypt_streams_checks_stream_and_key_sizes():
    streams = {lvl: np.zeros(9, dtype=np.uint8) for lvl in stego.QR_LEVELS}
    keys = {lvl: bytes(2) for lvl in stego.QR_LEVELS}
    with pytest.raises(ShapeError):
        stego.decrypt_streams({**streams, "M": np.zeros(8, dtype=np.uint8)}, keys, 3, 3)
    for short_or_long in (bytes(1), bytes(3)):
        with pytest.raises(FormatError):
            stego.decrypt_streams(streams, {**keys, "Q": short_or_long}, 3, 3)


def test_v1_seed_and_public_key_decrypt_without_private_key():
    # Documents a v1 weakness (README "Security notes"): the ephemeral exponents
    # come from the stego seed, so anyone holding the seed and the public key
    # regenerates every keystream and payload without x.
    p, alpha = elgamal.generate_key_params(256, Splitmix64(0))
    pub, _ = elgamal.keygen(p, alpha, Splitmix64(1))
    cfg = StegoConfig(key=StegoKey(seed=0x5EED), public=pub)
    coder = FrameCoder(cfg.key, 36, 28)
    qr_set = {lvl: synth.qr_like_plane(18, 14, seed=i) for i, lvl in enumerate(stego.QR_LEVELS)}
    payload = prepare_payload(qr_set, cfg, 3, coder)
    regenerated = {
        lvl: elgamal.keystream(pub, (coder.capacity_bits + 7) // 8, stego.payload_rng(cfg.key, lvl, 3))
        for lvl in stego.QR_LEVELS
    }
    for lvl, ks in regenerated.items():
        assert ks.sender_publics == payload.bundles[lvl].sender_publics
    keys = {lvl: ks.key_bytes for lvl, ks in regenerated.items()}
    plain = stego.decrypt_streams(payload.bits, keys, 18, 14)
    for lvl in stego.QR_LEVELS:
        assert np.array_equal(plain.planes[lvl].bits, qr_set[lvl].bits)


def test_v1_dictionary_passphrase_falls_to_the_sidecar_fingerprint():
    # Documents a v1 weakness (README "Security notes"): the stego seed is FNV-1a 64
    # of the passphrase and the sidecar's key_fingerprint hashes that seed, so one
    # hash per word confirms a guess offline. The seed and the public key then
    # decrypt a level without x, as the test above shows.
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words = [a + b for a in syllables for b in syllables[:29]]  # 2,030 two-syllable words
    words.insert(1234, "swordfish")
    p, alpha = elgamal.generate_key_params(64, Splitmix64(64))
    pub, _ = elgamal.keygen(p, alpha, Splitmix64(1))
    cfg = StegoConfig(key=StegoKey.from_passphrase("swordfish"), public=pub)
    coder = FrameCoder(cfg.key, 36, 28)
    sidecar = new_sidecar(cfg, coder)
    qr_set = {lvl: synth.qr_like_plane(18, 14, seed=i) for i, lvl in enumerate(stego.QR_LEVELS)}
    (frame,) = embed_video(synth.gradient_video(36, 28, 1, seed=5)[1], qr_set, cfg, coder, sidecar, QualityReport())
    found = [word for word in words if StegoKey.from_passphrase(word).fingerprint() == sidecar.key_fingerprint]
    assert found == ["swordfish"]
    key = StegoKey.from_passphrase(found[0])
    ks = elgamal.keystream(pub, sidecar.plain_len, stego.payload_rng(key, "L", 0))
    assert list(ks.sender_publics) == list(sidecar.frames[0]["L"])
    bits = FrameCoder(key, 36, 28).extract(frame)["L"]
    key_bits = np.unpackbits(np.frombuffer(ks.key_bytes, dtype=np.uint8), count=bits.size)
    assert np.array_equal((bits ^ key_bits).reshape(14, 18), qr_set["L"].bits)


def test_embed_video_determinism():
    cfg = make_cfg(seed=31337)
    qr_set = {lvl: synth.qr_like_plane(8, 8, seed=6) for lvl in stego.QR_LEVELS}

    def run():
        _, frames = synth.gradient_video(16, 16, 4, seed=9)
        coder = FrameCoder(cfg.key, 16, 16)
        sidecar = new_sidecar(cfg, coder)
        out = list(embed_video(frames, qr_set, cfg, coder, sidecar, QualityReport()))
        return out, sidecar.to_json()

    a_frames, a_json = run()
    b_frames, b_json = run()
    assert a_json == b_json
    for fa, fb in zip(a_frames, b_frames):
        assert np.array_equal(fa.y, fb.y)
        assert np.array_equal(fa.u, fb.u)
        assert np.array_equal(fa.v, fb.v)


def test_sidecar_json_roundtrip(tmp_path):
    cfg = make_cfg()
    coder = FrameCoder(cfg.key, 16, 16)
    sidecar = new_sidecar(cfg, coder, "30:1")
    sidecar.frames.append({lvl: [320, 619] for lvl in stego.QR_LEVELS})
    path = tmp_path / "run.sidecar.json"
    sidecar.write(path)
    back = Sidecar.read(path)
    assert back == sidecar
    with pytest.raises(FormatError):
        Sidecar.from_json("{}")
    with pytest.raises(FormatError):
        Sidecar.from_json("not json")


def json_dumps_sidecar(sidecar):
    """The sidecar text as json.dumps writes the whole document: to_json must equal it."""
    doc = {
        "format": stego.SIDECAR_FORMAT,
        "version": stego.SIDECAR_VERSION,
        "video": {
            "width": sidecar.video.width,
            "height": sidecar.video.height,
            "frame_count": len(sidecar.frames),
            "frame_rate": sidecar.video.frame_rate,
        },
        "qr": {"width": sidecar.qr_width, "height": sidecar.qr_height},
        "plain_len": sidecar.plain_len,
        "key_fingerprint": sidecar.key_fingerprint,
        "frames": [
            {level: [str(d) for d in publics] for level, publics in record.items()}
            for record in sidecar.frames
        ],
    }
    return json.dumps(doc, indent=1)


@pytest.mark.parametrize("frames", [
    [],  # no frames
    [{"L": [], "M": [5], "Q": [], "H": []}],  # empty level lists
    [{lvl: [1, 996, 2**255 + 7] for lvl in stego.QR_LEVELS}] * 3,  # several frames
    [{}, {"L": [3]}],  # records need not hold every level to be written
    [{'L"\\\n\u00e9\u2028': [7]}],  # a level name that needs escaping, ASCII or not
])
@pytest.mark.parametrize("frame_rate,fingerprint", [("30:1", "0123456789abcdef")])
def test_sidecar_text_equals_json_dumps(frames, frame_rate, fingerprint):
    sidecar = Sidecar(VideoMeta(16, 16, frame_rate), fingerprint, frames)
    assert sidecar.to_json() == json_dumps_sidecar(sidecar)


def test_sidecar_text_equals_json_dumps_for_an_embedded_clip():
    cfg = make_cfg(seed=12)
    _, frames = synth.gradient_video(32, 32, 3, seed=8)
    qr_set = {lvl: synth.qr_like_plane(16, 16, seed=i) for i, lvl in enumerate(stego.QR_LEVELS)}
    coder = FrameCoder(cfg.key, 32, 32)
    sidecar = new_sidecar(cfg, coder, "25:1")
    list(embed_video(frames, qr_set, cfg, coder, sidecar, QualityReport()))
    assert sidecar.to_json() == json_dumps_sidecar(sidecar)


def test_sidecar_rejects_inconsistent_plain_len():
    cfg = make_cfg()
    doc = json.loads(new_sidecar(cfg, FrameCoder(cfg.key, 16, 16)).to_json())
    doc["plain_len"] += 1
    with pytest.raises(FormatError, match="sidecar plain_len 9 disagrees with the payload size"):
        Sidecar.from_json(json.dumps(doc))


def test_sidecar_without_a_frame_rate_reads_back_with_the_y4m_default():
    cfg = make_cfg()
    sidecar = new_sidecar(cfg, FrameCoder(cfg.key, 16, 16))
    assert sidecar.video.frame_rate == VideoMeta.frame_rate
    doc = json.loads(new_sidecar(cfg, FrameCoder(cfg.key, 16, 16), "30:1").to_json())
    del doc["video"]["frame_rate"]
    assert Sidecar.from_json(json.dumps(doc)).video.frame_rate == VideoMeta.frame_rate


def test_sidecar_rejects_a_transposed_qr_size():
    # 12x8 planes hold as many bits as 8x12 ones, so plain_len still agrees.
    cfg = make_cfg()
    doc = json.loads(new_sidecar(cfg, FrameCoder(cfg.key, 24, 16)).to_json())
    doc["qr"] = {"width": 8, "height": 12}
    with pytest.raises(FormatError, match="qr size 8x12 is not half of the 24x16 video"):
        Sidecar.from_json(json.dumps(doc))


def test_sidecar_derives_its_qr_size_and_key_length_from_the_video():
    sidecar = Sidecar(VideoMeta(24, 18), "0123456789abcdef")
    assert (sidecar.qr_width, sidecar.qr_height, sidecar.plain_len) == (12, 9, 14)
    assert [f.name for f in dataclasses.fields(Sidecar)] == ["video", "key_fingerprint", "frames"]
    for name in ("qr_width", "qr_height", "plain_len"):
        with pytest.raises(AttributeError):
            setattr(sidecar, name, 1)
    for name in ("video", "key_fingerprint", "frames"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sidecar, name, getattr(sidecar, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sidecar.video.width = 26


FINGERPRINTS = st.text("0123456789abcdef", min_size=16, max_size=16)


@settings(max_examples=150)
@given(
    size=st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
    rate=st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)),
    fingerprint=FINGERPRINTS,
    frames=st.lists(st.fixed_dictionaries(
        {lvl: st.lists(st.integers(-(2**300), 2**300), max_size=3) for lvl in stego.QR_LEVELS}), max_size=3),
)
def test_every_sidecar_that_can_be_built_reads_back_equal(size, rate, fingerprint, frames):
    sidecar = Sidecar(VideoMeta(2 * size[0], 2 * size[1], f"{rate[0]}:{rate[1]}"), fingerprint, frames)
    assert Sidecar.from_json(sidecar.to_json()) == sidecar


@settings(max_examples=150)
@given(
    size=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    rate=st.text(max_size=12),
    fingerprint=st.one_of(st.text(max_size=20), FINGERPRINTS.map(str.upper), st.integers(), st.none(),
                          st.lists(FINGERPRINTS, max_size=1)),
)
def test_a_sidecar_the_reader_would_refuse_cannot_be_built(size, rate, fingerprint):
    # Each field is refused alone, beside valid others.
    if size[0] <= 0 or size[1] <= 0 or size[0] % 2 or size[1] % 2:
        with pytest.raises(ShapeError):
            Sidecar(VideoMeta(*size), "0123456789abcdef")
    if not re.fullmatch("[0-9]+:[0-9]+", rate):
        with pytest.raises(FormatError, match="Y4M header token"):
            Sidecar(VideoMeta(16, 16, rate), "0123456789abcdef")
    if not (isinstance(fingerprint, str) and re.fullmatch("[0-9a-f]{16}", fingerprint)):
        with pytest.raises(FormatError, match="is not 16 lowercase hex digits"):
            Sidecar(VideoMeta(16, 16), fingerprint)


def test_extract_video_builds_no_video_header_of_its_own(monkeypatch):
    # The sidecar holds the VideoMeta it was proved with: the one header built is the coder's.
    cfg, out, sidecar, qr_set = embedded_64_bit_clip()
    built, coders = [], []
    real_check, real_coder = VideoMeta.__post_init__, stego.FrameCoder
    monkeypatch.setattr(VideoMeta, "__post_init__", lambda self: built.append(self) or real_check(self))
    monkeypatch.setattr(stego, "FrameCoder", lambda *args: coders.append(real_coder(*args)) or coders[-1])
    results = list(extract_video(out, cfg, sidecar))
    assert len(coders) == len(built) == 1 and built[0] is coders[0].meta
    assert all(np.array_equal(r.planes[lvl].bits, qr_set[lvl].bits) for r in results for lvl in stego.QR_LEVELS)


def test_extract_requires_private_key():
    cfg = StegoConfig(key=StegoKey(seed=1), public=PUB, private=None)
    coder = FrameCoder(cfg.key, 16, 16)
    sidecar = new_sidecar(cfg, coder)
    sidecar.frames.append({lvl: [320] for lvl in stego.QR_LEVELS})
    with pytest.raises(CryptoError):
        list(extract_video([gray_frame()], cfg, sidecar))


def test_extract_rejects_missing_sidecar_frames():
    cfg = make_cfg()
    coder = FrameCoder(cfg.key, 16, 16)
    sidecar = new_sidecar(cfg, coder)  # zero frame records
    with pytest.raises(FormatError):
        list(extract_video([gray_frame()], cfg, sidecar))


def test_extract_rejects_geometry_mismatch(monkeypatch):
    cfg = make_cfg()
    coder = FrameCoder(cfg.key, 16, 16)
    sidecar = dataclasses.replace(new_sidecar(cfg, coder), video=VideoMeta(64, 16))
    sidecar.frames.append({lvl: [320] for lvl in stego.QR_LEVELS})
    built = []
    monkeypatch.setattr(stego, "FrameCoder", lambda *args: built.append(args))
    with pytest.raises(ShapeError):
        list(extract_video([gray_frame()], cfg, sidecar))
    assert not built  # the mismatch is caught before a coder is built


@pytest.mark.parametrize(
    "site", ["FrameCoder.embed", "FrameCoder.extract", "write_y4m", "extract_video", "mse", "add_frame"]
)
def test_every_stage_refuses_a_frame_of_another_size_by_the_one_check(site):
    # Each stage checks a frame against its header with VideoMeta.check_frame: one message, both sizes.
    cfg = make_cfg()
    coder = FrameCoder(cfg.key, 16, 16)
    other = gray_frame(16, 8)
    refuse = {
        "FrameCoder.embed": lambda: coder.embed(other, bare_payload({})),
        "FrameCoder.extract": lambda: coder.extract(other),
        "write_y4m": lambda: write_y4m(VideoMeta(16, 16), [gray_frame(), other], io.BytesIO()),
        "extract_video": lambda: list(extract_video([other], cfg, new_sidecar(cfg, coder))),
        "mse": lambda: mse(gray_frame(), other),
        "add_frame": lambda: QualityReport().add_frame(gray_frame(), other),
    }[site]
    with pytest.raises(ShapeError, match="^frame is 16x8, expected 16x16$"):
        refuse()


def test_partial_byte_geometry_roundtrip():
    # 6x6 cover -> 3x3 payload planes -> 9 bits, so the final keystream
    # byte has seven unused bits; recovery is still exact.
    cfg = make_cfg(seed=2)
    _, frames = synth.gradient_video(6, 6, 1, seed=1)
    qr_set = {
        lvl: synth.qr_like_plane(3, 3, seed=30 + i, module=1)
        for i, lvl in enumerate(stego.QR_LEVELS)
    }
    coder = FrameCoder(cfg.key, 6, 6)
    sidecar = new_sidecar(cfg, coder)
    out = list(embed_video(frames, qr_set, cfg, coder, sidecar, QualityReport()))
    results = list(extract_video(out, cfg, sidecar))
    for lvl in stego.QR_LEVELS:
        assert np.array_equal(results[0].planes[lvl].bits, qr_set[lvl].bits)
