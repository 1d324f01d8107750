import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ScriptedRng
from qrsteg import elgamal, synth
from qrsteg.elgamal import (
    CipherBundle,
    ElGamalPrivate,
    ElGamalPublic,
    classic_decrypt,
    classic_encrypt,
    int_to_bytes_le,
    keygen,
    keystream,
    regenerate_keystream,
    stream_decrypt,
    stream_encrypt,
    xor_bytes,
)
from qrsteg.errors import CryptoError, FormatError
from qrsteg.permute import Splitmix64, StegoKey
from qrsteg.quality import QualityReport
from qrsteg.stego import QR_LEVELS, FrameCoder, StegoConfig, embed_video, new_sidecar

# Demo key material: p = 997, alpha = 809, x = 420 -> y = 12.
PUB = ElGamalPublic(p=997, alpha=809, y=12)
PRIV = ElGamalPrivate(x=420)
K_SEQUENCE = [87, 578, 734, 55, 376, 622]
SECRET_PIXELS = bytes([12, 66, 23, 204, 138, 76, 0, 94, 51])
ENCRYPTED_PIXELS = bytes([16, 65, 252, 205, 148, 190, 2, 15, 75])

# Tiny field for exhaustive checks: 5 is a primitive root of 23.
TINY_PUB = ElGamalPublic(p=23, alpha=5, y=8)  # y = 5^6 mod 23
TINY_PRIV = ElGamalPrivate(x=6)


@st.composite
def table_cases(draw):
    """(base, k, p, w) over odd moduli 5 .. 2^300 and windows w, often a whole number of windows long."""
    w = draw(st.sampled_from([1, 2, 5, 7, 8]))  # widths _window_bits picks
    bits = draw(st.one_of(st.sampled_from(range(w, 301, w)), st.integers(3, 300)))
    p = max(5, draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1)
    all_ones = (1 << (w * ((p.bit_length() - 1) // w))) - 1  # every window 2^w - 1, below p
    k = draw(st.one_of(st.sampled_from([2, p - 3, all_ones]), st.integers(0, p - 1)))
    return draw(st.integers(0, p - 1)), k, p, w


@settings(max_examples=300)
@given(table_cases())
@example((3, (1 << 294) - 1, (1 << 300) - 3, 6))
@example((3, (1 << 296) - 1, (1 << 300) - 3, 8))
@example((3, 996, 997, 10))  # one row: base^k is a single entry
@example((4294967290, 4294967289, 4294967291, 6))  # the largest prime below 2^32: the widest uint64 products
@example((4294967289, 4294967290, 4294967291, 8))
@example((4294967310, 4294967309, 4294967311, 6))  # the smallest prime above 2^32: Python ints
def test_table_pow_matches_builtin_pow(case):
    base, k, p, w = case
    table = elgamal._fixed_base_table(base, p, w)
    assert table.dtype == (np.uint64 if p < 2**32 else object)
    assert elgamal._table_pows(table, [k], p).tolist() == [pow(base, k, p)]
    batch = [k, 0, 1, 2, p - 1, k // 2]
    got = elgamal._table_pows(table, batch, p)
    assert got.dtype == table.dtype
    assert got.tolist() == [pow(base, e, p) for e in batch]
    other = (base * 3 + 1) % p
    stacked = np.stack([table, elgamal._fixed_base_table(other, p, w)])
    got = elgamal._table_pows(stacked, batch, p)
    assert got.dtype == table.dtype
    assert got.tolist() == [[pow(b, e, p) for e in batch] for b in (base, other)]


@pytest.mark.parametrize("p", [4294967291, 2**64 - 59], ids=["uint64", "object"])
def test_table_pows_past_one_chunk_match_builtin_pow(p):
    # Two whole chunks and part of a third, on one table and on a stack of two.
    rng = random.Random(p)
    batch = [rng.randrange(p) for _ in range(2 * elgamal._POW_CHUNK + 3)]
    tables = [elgamal._fixed_base_table(base, p, 7) for base in (3, 5)]
    assert tables[0].dtype == (np.uint64 if p < 2**32 else object)
    assert elgamal._table_pows(tables[0], batch, p).tolist() == [pow(3, e, p) for e in batch]
    want = [[pow(base, e, p) for e in batch] for base in (3, 5)]
    assert elgamal._table_pows(np.stack(tables), batch, p).tolist() == want


def brute_force_window(bits, chains):
    """The rule by hand: the smallest w minimising table build plus chains, one multiplication per row each."""
    best = None
    for w in range(1, 65):
        rows = -(-bits // w)
        if w > 1 and rows * 2**w > 2**16:
            continue
        cost = rows * (2**w - 1 + chains)
        if best is None or cost < best[0]:
            best = cost, w
    return best[1]


def test_window_rule_is_the_argmin_under_the_entry_cap():
    for bits in (2, 10, 16, 31, 32, 33, 64, 255, 256, 257, 1024, 2048, 4096, 8192):
        for chains in (0, 1, 7, 50, 104, 800, 1584, 6400, 25_344, 10**5, 10**6, 10**9):
            w = elgamal._window_bits(bits, chains)
            assert w == brute_force_window(bits, chains), (bits, chains)
            assert -(-bits // w) << w <= 2**16
    # The sizes the receiver meets (two chains per public value): a 2-frame
    # CIF clip under a 256-bit key (99 values per level), the same clip at
    # p = 997 (at least 1,584 values per level), one CIF frame at 2048 bits.
    assert elgamal._window_bits(256, 2 * 8 * 99) == 8
    assert elgamal._window_bits(10, 2 * 8 * 1584) == 10  # one row of 1024 entries
    assert elgamal._window_bits(2048, 2 * 4 * 13) == 5
    assert elgamal._window_bits(40_000, 10**6) == 1  # no table fits the cap; the narrowest is kept


def test_keystream_builds_each_table_once(monkeypatch):
    # One stacked table per (key object, window): a 3-frame embed builds
    # alpha's and y's once, and single-level keystreams of the same window reuse them.
    built = []
    real = elgamal._fixed_base_table
    monkeypatch.setattr(elgamal, "_fixed_base_table",
                        lambda base, p, window: built.append((base, window)) or real(base, p, window))
    pub = ElGamalPublic(p=997, alpha=809, y=12)
    cfg = StegoConfig(key=StegoKey(seed=5), public=pub)
    coder = FrameCoder(cfg.key, 36, 28)
    qr_set = {level: synth.qr_like_plane(18, 14, seed=i) for i, level in enumerate(QR_LEVELS)}
    frames = synth.gradient_video(36, 28, 3, seed=1)[1]
    assert len(list(embed_video(frames, qr_set, cfg, coder, new_sidecar(cfg, coder), QualityReport()))) == 3
    window = elgamal._window_bits(10, 4 * 16)  # 16 draws of two bytes for each level's 32
    assert built == [(809, window), (12, window)]
    assert elgamal._window_bits(10, 20) == window
    for seed in range(4):
        keystream(pub, 40, Splitmix64(seed))
        stream_encrypt(bytes(40), pub, Splitmix64(seed))
    assert built == [(809, window), (12, window)]
    assert pub == PUB


def test_regenerate_keystream_rejects_bad_modulus():
    for p in (0, 1):
        with pytest.raises(CryptoError):
            regenerate_keystream((1,), p, PRIV, 1)


def test_regenerate_keystream_rejects_out_of_range_publics():
    # -1 and 2^64 would not fit a uint64 array: the range check must come first.
    for d in (0, 997, -3, -1, 2**64):
        with pytest.raises(CryptoError, match="out of range"):
            regenerate_keystream((320, d), 997, PRIV, 2)


def test_regenerate_keystream_rejects_a_zero_power():
    # 10^3 = 0 (mod 1000): p is not prime, and extract never proves that it is.
    with pytest.raises(CryptoError, match="non-positive value 0"):
        regenerate_keystream((10,), 1000, ElGamalPrivate(3), 1)
    with pytest.raises(CryptoError, match="non-positive value 0"):
        regenerate_keystream((3, 10, 7), 1000, ElGamalPrivate(3), 1)


def test_validate_proves_each_key_object_once(monkeypatch):
    proved = []
    real = elgamal.is_probable_prime

    def counting(n, *args):
        proved.append(n)
        return real(n, *args)

    monkeypatch.setattr(elgamal, "is_probable_prime", counting)
    pub = ElGamalPublic(p=997, alpha=809, y=12)
    for _ in range(3):
        pub.validate()
    assert proved == [997]
    ElGamalPublic(p=997, alpha=809, y=12).validate()  # a key loaded afresh is checked again
    assert proved == [997, 997]
    for bad in (ElGamalPublic(p=996, alpha=809, y=12), ElGamalPublic(p=997, alpha=1, y=12)):
        for _ in range(2):  # a failing key raises on every call
            with pytest.raises(CryptoError):
                bad.validate()
    assert proved == [997, 997, 996, 996, 997, 997]


def test_check_key_pair():
    elgamal.check_key_pair(PUB, PRIV)
    elgamal.check_key_pair(PUB, ElGamalPrivate(420 + 996))  # the same exponent mod p - 1
    for x in (421, 1):
        with pytest.raises(CryptoError, match="does not match the public key"):
            elgamal.check_key_pair(PUB, ElGamalPrivate(x))


def test_private_key_rejects_non_positive_exponent():
    for x in (0, -3):
        with pytest.raises(CryptoError):
            ElGamalPrivate(x=x)


def test_keygen_demo_key():
    pub, priv = keygen(997, 809, ScriptedRng([420]))
    assert (pub.p, pub.alpha, pub.y) == (997, 809, 12)
    assert priv.x == 420


def test_keygen_tiny_key():
    pub, priv = keygen(23, 5, ScriptedRng([6]))
    assert pub.y == 8  # 5^6 = 15625 = 8 (mod 23)
    assert priv.x == 6


def test_keygen_definitional_invariants():
    rng = random.Random(11)
    for _ in range(25):
        pub, priv = keygen(997, 809, rng)
        assert 1 < priv.x < 995
        assert pub.y == pow(809, priv.x, 997)


def test_keygen_rejects_bad_parameters():
    # keygen proves nothing; validate refuses each bad (p, alpha), and so
    # does StegoConfig, where a key enters the pipeline.
    cases = ((996, 809, "p = 996 is not prime"), (997, 1, "alpha out of range"), (997, 996, "alpha out of range"))
    for p, alpha, message in cases:
        with pytest.raises(CryptoError, match=message):
            ElGamalPublic(p=p, alpha=alpha, y=12).validate()
        pub, priv = keygen(p, alpha, random.Random(0))
        with pytest.raises(CryptoError, match=message):
            StegoConfig(key=StegoKey(seed=0), public=pub, private=priv)


@pytest.mark.parametrize("q", [2, 3, 83])
def test_demo_alpha_generates_the_group(q):
    # p - 1 = 996 = 2^2 * 3 * 83: alpha is a generator iff no alpha^((p - 1) / q) is 1.
    assert (elgamal.DEMO_P, elgamal.DEMO_ALPHA) == (997, 809)
    assert pow(809, 996 // q, 997) != 1


def test_classic_encrypt_known_vector():
    # 5^3=10, 8^3=6, 6*10=14 (mod 23), confirmed by the exhaustive oracle below
    assert classic_encrypt(10, TINY_PUB, 3) == (10, 14)
    assert classic_encrypt(0, TINY_PUB, 3)[1] == 0
    assert classic_encrypt(1, TINY_PUB, 3)[1] == 6  # z = y^k mod p when m = 1


def test_classic_decrypt_known_vector():
    # r = 10^16 = 4 (mod 23), 4 * 14 = 56 = 10 (mod 23)
    assert classic_decrypt(10, 14, TINY_PUB, TINY_PRIV) == 10
    assert classic_decrypt(10, 0, TINY_PUB, TINY_PRIV) == 0


def test_classic_rejects_out_of_range():
    with pytest.raises(CryptoError):
        classic_encrypt(23, TINY_PUB, 3)
    with pytest.raises(CryptoError):
        classic_encrypt(-1, TINY_PUB, 3)
    with pytest.raises(CryptoError):
        classic_decrypt(0, 5, TINY_PUB, TINY_PRIV)
    with pytest.raises(CryptoError):  # would make the exponent p - 1 - x negative
        classic_decrypt(10, 14, TINY_PUB, ElGamalPrivate(x=23))


def test_classic_roundtrip_exhaustive_p23():
    # Brute force over every message and every valid ephemeral exponent.
    for m in range(23):
        for k in range(2, 21):
            d, z = classic_encrypt(m, TINY_PUB, k)
            assert classic_decrypt(d, z, TINY_PUB, TINY_PRIV) == m


def test_int_to_bytes_le_vectors():
    assert list(int_to_bytes_le(796)) == [28, 3]
    assert list(int_to_bytes_le(30)) == [30]
    assert list(int_to_bytes_le(255)) == [255]
    assert list(int_to_bytes_le(256)) == [0, 1]


def test_int_to_bytes_le_rejects_non_positive():
    for v in (0, -1, -796):
        with pytest.raises(CryptoError):
            int_to_bytes_le(v)


def test_key_bytes_matches_int_to_bytes_le():
    values = [1, 255, 256, 65535, 65536, 2**24 - 1, 2**24, 4294967290]
    for chosen in ([], values[:1], values, values[::-1]):
        for powers in (np.array(chosen, dtype=np.uint64), np.array(chosen + [2**64 + 1], dtype=object)):
            out = elgamal._key_bytes(powers)
            assert type(out) is bytes
            assert out == b"".join(map(int_to_bytes_le, powers.tolist()))
    for zero in (np.array([7, 0, 7], dtype=np.uint64), np.array([7, 0, 7], dtype=object)):
        with pytest.raises(CryptoError, match=re.escape("cannot expand non-positive value 0")):
            elgamal._key_bytes(zero)


def test_keystream_demo_vector():
    ks = keystream(PUB, 9, ScriptedRng(K_SEQUENCE))
    assert list(ks.sender_publics) == [320, 619, 122, 273, 171, 918]
    assert list(ks.key_bytes) == [28, 3, 235, 1, 30, 242, 2, 81, 120]
    # one draw per public value, in order: d = alpha^k for each scripted k
    assert list(ks.sender_publics) == [pow(809, k, 997) for k in K_SEQUENCE]


def test_keystream_empty():
    ks = keystream(PUB, 0, ScriptedRng([]))
    assert ks.sender_publics == ()
    assert ks.key_bytes == b""


# A 256-bit safe prime (from generate_key_params(256, Splitmix64(2026))) with generator 2.
P256 = 91663258358405166274873982642583064051996121153396843919186821880374269746659
# Table powers run in uint64 below 2^32 and as Python ints above; exponent
# draws come back as uint64 below 2^64 and as Python ints above.
ORACLE_KEYS = [
    PUB,
    ElGamalPublic(p=4294967291, alpha=7, y=pow(7, 123456789, 4294967291)),  # largest prime below 2^32
    ElGamalPublic(p=4294967311, alpha=3, y=pow(3, 987654321, 4294967311)),  # smallest prime above 2^32
    ElGamalPublic(p=2**33 - 9, alpha=3, y=pow(3, 10**9, 2**33 - 9)),
    ElGamalPublic(p=2**64 - 59, alpha=5, y=pow(5, 10**18, 2**64 - 59)),
    ElGamalPublic(p=P256, alpha=2, y=pow(2, 3**150, P256)),
]
# Each key with the private exponent written in its y.
ORACLE_PAIRS = list(zip(ORACLE_KEYS, map(ElGamalPrivate, (420, 123456789, 987654321, 10**9, 10**18, 3**150))))


def sequential_keystream(pub, nbytes, rng):
    """The sequential rule keystream must reproduce: one randrange draw at a time.

    Returns the sender publics, the key bytes and the drawn exponents.
    """
    publics, parts, exponents = [], [], []
    total = 0
    while total < nbytes:
        k = rng.randrange(2, pub.p - 2)
        exponents.append(k)
        publics.append(pow(pub.alpha, k, pub.p))
        parts.append(int_to_bytes_le(pow(pub.y, k, pub.p)))
        total += len(parts[-1])
    return publics, b"".join(parts)[:nbytes], exponents


@pytest.mark.parametrize("pub", ORACLE_KEYS, ids=lambda pub: f"{pub.p.bit_length()}bit")
def test_keystream_matches_sequential_oracle(pub):
    for n in (0, 1, 2, 3, 31, 1000, 3168):
        for seed in (0, 5, 2**64 - 1):
            oracle, batch = Splitmix64(seed), Splitmix64(seed)
            publics, key, _ = sequential_keystream(pub, n, oracle)
            ks = keystream(pub, n, batch)
            assert list(ks.sender_publics) == publics
            assert ks.key_bytes == key
            assert batch._state == oracle._state
            # bench.run calls d.bit_length() and the sidecar writer str(d)
            assert {type(d) for d in ks.sender_publics} <= {int}


def sequential_regenerate(sender_publics, p, priv, nbytes):
    """The receiver rule regenerate_keystream must reproduce: one builtin pow per public value."""
    key = b"".join(int_to_bytes_le(pow(d, priv.x, p)) for d in sender_publics)
    if len(key) < nbytes:
        raise CryptoError(f"corrupt bundle: regenerated keystream has {len(key)} bytes, need {nbytes}")
    return key[:nbytes]


# Keys on both sides of the uint64 bound, with their private exponents.
RECEIVER_KEYS = [ORACLE_PAIRS[i] for i in (0, 1, 2, 5)]


@pytest.mark.parametrize("pub,priv", RECEIVER_KEYS,
                         ids=[f"{pub.p.bit_length()}bit" for pub, _ in RECEIVER_KEYS])
def test_regenerate_keystream_matches_sequential_oracle(pub, priv):
    assert pub.y == pow(pub.alpha, priv.x, pub.p)
    for n in (0, 1, 2, 3, 31, 1000, 3168):
        ks = keystream(pub, n, Splitmix64(n))
        key = sequential_regenerate(ks.sender_publics, pub.p, priv, n)
        assert regenerate_keystream(ks.sender_publics, pub.p, priv, n) == key == ks.key_bytes
        if n:  # the last public's bytes are needed: without it the keystream is short
            short = ks.sender_publics[:-1]
            with pytest.raises(CryptoError) as want:
                sequential_regenerate(short, pub.p, priv, n)
            with pytest.raises(CryptoError, match=re.escape(str(want.value))):
                regenerate_keystream(short, pub.p, priv, n)


def receiver_outcome(regenerate, *args):
    """A receiver's keystream, or the text of the CryptoError it raised."""
    try:
        return regenerate(*args)
    except CryptoError as exc:
        return f"CryptoError: {exc}"


def replay_one(sender_publics, pub, priv, nbytes, rng):
    """replay_keystreams on a batch of one level."""
    return elgamal.replay_keystreams([(sender_publics, rng)], pub, priv, nbytes)[0]


@pytest.mark.parametrize("pub,priv", RECEIVER_KEYS,
                         ids=[f"{pub.p.bit_length()}bit" for pub, _ in RECEIVER_KEYS])
def test_replay_keystream_matches_sequential_oracle(pub, priv):
    # Whether the rng replays the sender's exponents or not, and whatever
    # the sidecar holds, the receiver's bytes are those of the d^x rule.
    for n in (0, 1, 2, 3, 31, 1000, 3168):
        publics = keystream(pub, n, Splitmix64(n)).sender_publics
        tampered = list(publics)
        if publics:
            tampered[len(publics) // 2] = tampered[len(publics) // 2] % (pub.p - 1) + 1
        cases = [(publics, n), (publics, n + 1), (tampered, n), (publics[:-1], n)]  # rng seed n is the sender's
        for sender_publics, seed in cases:
            want = receiver_outcome(sequential_regenerate, sender_publics, pub.p, priv, n)
            got = receiver_outcome(replay_one, sender_publics, pub, priv, n, Splitmix64(seed))
            assert got == want
        if n:  # the last public's bytes are needed: without it the keystream is short
            assert want.startswith("CryptoError: corrupt bundle")


# p = 997, the largest prime below 2^32 (the uint64 path's widest products), 64 and 256 bits.
BATCH_KEYS = [ORACLE_PAIRS[i] for i in (0, 1, 4, 5)]


def frame_levels(pub, frames, nbytes):
    """(sender publics, seed) per level of each frame, four levels a frame, drawn as a sender draws them."""
    seeds = [100 * frame + level for frame in range(frames) for level in range(4)]
    return [(keystream(pub, nbytes, Splitmix64(seed)).sender_publics, seed) for seed in seeds]


@pytest.mark.parametrize("pub,priv", BATCH_KEYS, ids=[f"{pub.p.bit_length()}bit" for pub, _ in BATCH_KEYS])
def test_a_tampered_level_alone_takes_the_reference_in_a_batch(pub, priv, monkeypatch):
    # Three frames in one batch, one table: frame 1's level Q (index 4 + 2)
    # holds one altered value, so that level alone runs regenerate_keystream.
    assert pub.y == pow(pub.alpha, priv.x, pub.p)
    n = 100
    levels = frame_levels(pub, 3, n)
    publics = list(levels[6][0])
    publics[len(publics) // 2] = publics[len(publics) // 2] % (pub.p - 1) + 1
    levels[6] = tuple(publics), levels[6][1]
    regenerated = []
    real = elgamal.regenerate_keystream
    monkeypatch.setattr(elgamal, "regenerate_keystream", lambda *args: regenerated.append(args[0]) or real(*args))
    got = elgamal.replay_keystreams([(d, Splitmix64(seed)) for d, seed in levels], pub, priv, n)
    assert got == [sequential_regenerate(d, pub.p, priv, n) for d, _ in levels]
    assert regenerated == [tuple(publics)]


@pytest.mark.parametrize("pub,priv", BATCH_KEYS, ids=[f"{pub.p.bit_length()}bit" for pub, _ in BATCH_KEYS])
def test_an_unreduced_private_exponent_gives_the_d_to_the_x_bytes(pub, priv):
    # x + (p - 1) * 2^70 is the same key (check_key_pair accepts it), and
    # x * k must be reduced mod p - 1 before any uint64 product.
    big = ElGamalPrivate(priv.x + (pub.p - 1) * 2**70)
    elgamal.check_key_pair(pub, big)
    for frames, n in ((1, 3), (3, 100)):  # a batch of a few values at p = 997, and one of hundreds
        levels = frame_levels(pub, frames, n)
        want = [sequential_regenerate(d, pub.p, big, n) for d, _ in levels]
        assert want == [sequential_regenerate(d, pub.p, priv, n) for d, _ in levels]
        assert elgamal.replay_keystreams([(d, Splitmix64(seed)) for d, seed in levels], pub, big, n) == want


@pytest.mark.parametrize("pub", ORACLE_KEYS, ids=lambda pub: f"{pub.p.bit_length()}bit")
def test_keystream_takes_exactly_the_sequential_draws(pub):
    # ScriptedRng raises once its script is exhausted, so a round that drew
    # past the sequential stopping point would fail here.
    for n in (1, 2, 3, 31, 1000):
        for seed in range(4):
            publics, key, exponents = sequential_keystream(pub, n, Splitmix64(seed))
            rng = ScriptedRng(exponents)
            ks = keystream(pub, n, rng)
            assert (list(ks.sender_publics), ks.key_bytes) == (publics, key)
            assert rng._values == []


def sequential_rounds(pub, nbytes, exponents):
    """The draws of each round the sequential stop gives one level: ceil(remaining / most bytes a draw) each."""
    most = -(-pub.p.bit_length() // 8)
    lengths = (len(int_to_bytes_le(pow(pub.y, k, pub.p))) for k in exponents)
    rounds, total = [], 0
    while total < nbytes:
        rounds.append(-(-(nbytes - total) // most))
        total += sum(itertools.islice(lengths, rounds[-1]))
    return rounds


@pytest.mark.parametrize("pub", [pub for pub, _ in BATCH_KEYS], ids=lambda pub: f"{pub.p.bit_length()}bit")
def test_keystreams_match_the_sequential_oracle_per_level(pub, monkeypatch):
    # Each level draws as if alone: its public values, key bytes and end
    # state are the sequential rule's. Each round of the frame, over the
    # levels still short, is one _table_pows call of their draws.
    calls = []
    real = elgamal._table_pows
    monkeypatch.setattr(elgamal, "_table_pows", lambda table, k, p: calls.append(len(k)) or real(table, k, p))
    uneven = 0  # frames whose levels stop after different numbers of rounds
    for levels in (1, 4):
        for n in (0, 1, 31, 3168):
            for seed in (0, 7):
                seeds = [100 * seed + level for level in range(levels)]
                oracles = [Splitmix64(s) for s in seeds]
                want = [sequential_keystream(pub, n, oracle) for oracle in oracles]
                rngs = [Splitmix64(s) for s in seeds]
                calls.clear()
                got = elgamal.keystreams(pub, n, rngs)
                assert [(list(ks.sender_publics), ks.key_bytes) for ks in got] == [(d, key) for d, key, _ in want]
                assert [rng._state for rng in rngs] == [oracle._state for oracle in oracles]
                rounds = [sequential_rounds(pub, n, exponents) for *_, exponents in want]
                assert calls == [sum(r[i] for r in rounds if i < len(r)) for i in range(max(map(len, rounds)))]
                uneven += len(set(map(len, rounds))) > 1
    assert uneven or pub.p.bit_length() in (32, 64)  # there every level here takes two rounds


@pytest.mark.parametrize("pub", ORACLE_KEYS, ids=lambda pub: f"{pub.p.bit_length()}bit")
def test_keystreams_take_exactly_each_levels_sequential_draws(pub):
    # Four scripts, each exactly one level's sequential draws: a round that
    # drew past any level's stop would exhaust its script and raise.
    for n in (1, 31, 1000):
        for seed in range(2):
            want = [sequential_keystream(pub, n, Splitmix64(10 * seed + level)) for level in range(4)]
            rngs = [ScriptedRng(exponents) for *_, exponents in want]
            got = elgamal.keystreams(pub, n, rngs)
            assert [(list(ks.sender_publics), ks.key_bytes) for ks in got] == [(d, key) for d, key, _ in want]
            assert [rng._values for rng in rngs] == [[]] * 4


def test_sender_window_for_a_cif_frame_follows_the_receiver_rule():
    # A CIF frame's four levels of 3,168 bytes: the first round's draws size
    # the window as _window_bits sizes the receiver's. The window needs only
    # the size of p, so the 2048-bit modulus here need not be prime.
    p2048 = (1 << 2047) + 1155
    cases = [(PUB, 4 * 1584, 10), (ORACLE_KEYS[5], 4 * 99, 7),
             (ElGamalPublic(p2048, 2, pow(2, 3**500, p2048)), 4 * 13, 5)]
    for key, chains, window in cases:
        pub = ElGamalPublic(key.p, key.alpha, key.y)  # a fresh object, no table yet
        elgamal.keystreams(pub, 3168, [Splitmix64(level) for level in range(4)])
        assert elgamal._window_bits(pub.p.bit_length(), chains) == window
        assert list(pub._sender_tables) == [window]
        assert pub._sender_tables[window].shape == (2, -(-pub.p.bit_length() // window), 1 << window)


def test_v1_demo_keystream_is_biased():
    # Documents a v1 weakness (README "Security notes", ROADMAP item 4): under
    # the p = 997 demo key each y^k < 997 is written as one or two minimal
    # little-endian bytes, so every high byte is 1, 2 or 3. A uniform stream
    # would read a mean bit of 0.5 and give each byte value 1/256 of the bytes.
    n = 50_000
    data = np.frombuffer(keystream(PUB, n, Splitmix64(1)).key_bytes, dtype=np.uint8)
    counts = np.bincount(data, minlength=256)
    assert np.unpackbits(data).mean() == pytest.approx(0.3513, abs=0.001)
    assert counts.max() / n == pytest.approx(0.1482, abs=0.001)
    assert counts[1:4].sum() / n > 0.42


def test_keystream_regenerates_from_private_key():
    rng = Splitmix64(7)
    for _ in range(10):
        n = rng.randrange(0, 200)
        ks = keystream(PUB, n, rng)
        assert len(ks.key_bytes) == n
        assert regenerate_keystream(ks.sender_publics, PUB.p, PRIV, n) == ks.key_bytes


def test_stream_encrypt_demo_image():
    bundle = stream_encrypt(SECRET_PIXELS, PUB, ScriptedRng(K_SEQUENCE))
    assert bundle.ciphertext == ENCRYPTED_PIXELS
    assert bundle.plain_len == 9
    assert list(bundle.sender_publics) == [320, 619, 122, 273, 171, 918]


def test_stream_encrypt_no_expansion():
    rng = Splitmix64(3)
    for n in (0, 1, 7, 100):
        bundle = stream_encrypt(bytes(n), PUB, rng)
        assert len(bundle.ciphertext) == n == bundle.plain_len


def test_stream_encrypt_zero_plain_equals_keystream_prefix():
    bundle = stream_encrypt(bytes(9), PUB, ScriptedRng(K_SEQUENCE))
    assert list(bundle.ciphertext) == [28, 3, 235, 1, 30, 242, 2, 81, 120]


def test_equal_bytes_encrypt_differently():
    # Positions 0 and 1 see keystream bytes 28 and 3.
    bundle = stream_encrypt(bytes([12, 12]), PUB, ScriptedRng(K_SEQUENCE[:1]))
    assert list(bundle.ciphertext) == [16, 15]
    assert bundle.ciphertext[0] != bundle.ciphertext[1]


def test_stream_decrypt_demo_image():
    bundle = CipherBundle(
        sender_publics=(320, 619, 122, 273, 171, 918),
        ciphertext=ENCRYPTED_PIXELS,
        plain_len=9,
    )
    assert stream_decrypt(bundle, 997, PRIV) == SECRET_PIXELS


def test_stream_decrypt_empty_bundle():
    bundle = CipherBundle(sender_publics=(), ciphertext=b"", plain_len=0)
    assert stream_decrypt(bundle, 997, PRIV) == b""


def test_stream_decrypt_detects_short_keystream():
    bundle = CipherBundle(sender_publics=(320,), ciphertext=bytes(9), plain_len=9)
    with pytest.raises(CryptoError):
        stream_decrypt(bundle, 997, PRIV)


@pytest.mark.parametrize(
    "publics,ciphertext,plain_len,message",
    [
        ((), bytes(9), 9, "regenerated keystream has 0 bytes"),
        ((320, 619, 122, 273, 171, 918), bytes(8), 9, "differ in length"),
        ((320, 619, 122, 273, 171, 918), bytes(10), 9, "differ in length"),
        ((), bytes(1), 0, "differ in length"),
    ],
    ids=["no-publics", "short-ciphertext", "long-ciphertext", "ciphertext-without-payload"],
)
def test_stream_decrypt_refuses_a_malformed_bundle(publics, ciphertext, plain_len, message):
    bundle = CipherBundle(sender_publics=publics, ciphertext=ciphertext, plain_len=plain_len)
    with pytest.raises(CryptoError, match=message):
        stream_decrypt(bundle, 997, PRIV)


def test_xor_bytes_involution_at_scale():
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randrange(0, 64)
        a = rng.randbytes(n)
        k = rng.randbytes(n)
        assert xor_bytes(xor_bytes(a, k), k) == a


@settings(max_examples=150)
@given(st.binary(max_size=4096), st.integers(min_value=0, max_value=2**32 - 1))
def test_stream_roundtrip_random(plain, seed):
    rng = Splitmix64(seed)
    pub, priv = keygen(997, 809, rng)
    bundle = stream_encrypt(plain, pub, rng)
    assert stream_decrypt(bundle, pub.p, priv) == plain


def test_key_files_roundtrip(tmp_path):
    elgamal.save_public_key(PUB, tmp_path / "pub.json")
    elgamal.save_private_key(PRIV, tmp_path / "priv.json")
    assert elgamal.load_public_key(tmp_path / "pub.json") == PUB
    assert elgamal.load_private_key(tmp_path / "priv.json") == PRIV
    with pytest.raises(FormatError):
        elgamal.load_public_key(tmp_path / "priv.json")


def test_save_public_key_refuses_a_key_load_public_key_would_refuse(tmp_path):
    path = tmp_path / "pub.json"
    with pytest.raises(CryptoError, match="^p = 1001 is not prime$"):
        elgamal.save_public_key(ElGamalPublic(1001, 2, 3), path)
    assert not path.exists()


def test_load_public_key_proves_the_key_and_names_the_file(tmp_path):
    path = tmp_path / "pub.json"
    path.write_text(json.dumps({"kind": elgamal.PUBLIC_KIND, "p": "1003", "alpha": "809", "y": "12"}))
    with pytest.raises(CryptoError, match=re.escape(f"public key {path}: p = 1003 is not prime")):
        elgamal.load_public_key(path)


@pytest.mark.parametrize("bits", [elgamal.MIN_KEY_BITS - 1, elgamal.MAX_KEY_BITS + 1])
def test_generate_key_params_refuses_an_unsupported_size_before_any_draw(bits):
    class NoDraws:
        def __getattr__(self, name):
            pytest.fail(f"the search for a {bits}-bit key touched rng.{name}")

    with pytest.raises(CryptoError, match=f"key size {bits} is outside the supported 16 to 8192 bits"):
        elgamal.generate_key_params(bits, NoDraws())


def test_generate_key_params_safe_prime():
    # An rng without peek_getrandbits draws whole batches by getrandbits.
    for rng in (random.Random(5), random.SystemRandom()):
        p, alpha = elgamal.generate_key_params(64, rng)
        q = (p - 1) // 2
        assert p.bit_length() == 64
        assert elgamal.is_probable_prime(p)
        assert elgamal.is_probable_prime(q)
        assert pow(alpha, 2, p) != 1 and pow(alpha, q, p) != 1
        pub, priv = keygen(p, alpha, random.Random(6))
        assert stream_decrypt(stream_encrypt(b"payload", pub, Splitmix64(7)), p, priv) == b"payload"


def sequential_key_params(bits, rng):
    """The key search as one getrandbits call per candidate, trial division and
    Miller-Rabin on q and p: the reference generate_key_params must match."""
    small = elgamal._small_primes()[0]
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        p = 2 * q + 1
        if any(q % s == 0 or p % s == 0 for s in small if s < q):
            continue
        if elgamal.is_probable_prime(q) and elgamal.is_probable_prime(p):
            break
    for alpha in range(2, 1000):
        if pow(alpha, 2, p) != 1 and pow(alpha, q, p) != 1:
            return p, alpha


@pytest.mark.parametrize("bits,seeds", [(bits, 10) for bits in (16, 17, 63, 64, 65, 127, 128, 129)] + [(256, 3)])
def test_key_search_matches_the_sequential_rule(bits, seeds):
    # Same (p, alpha) and the same Splitmix64 state afterwards, so keygen's
    # next draw (x) and every seeded key file stay the same. 17, 65 and 129
    # bits draw q with a full top word; 16, 64 and 128 with one bit free.
    for seed in range(seeds):
        oracle, batch = Splitmix64(seed), Splitmix64(seed)
        assert elgamal.generate_key_params(bits, batch) == sequential_key_params(bits, oracle)
        assert batch._state == oracle._state


@pytest.mark.parametrize("bits", [16, 17, 64, 65, 256, 512, 2048])
def test_grouped_sieve_keeps_what_direct_residues_keep(bits):
    # Real candidate batches, bits set as generate_key_params sets them; no
    # Miller-Rabin runs. A candidate survives iff no odd sieve prime divides q or 2q + 1.
    odd = elgamal._small_primes()[0][1:]
    for seed in range(3):
        rows = Splitmix64(seed).peek_getrandbits(bits - 1, elgamal._KEY_BATCH)
        rows[:, 0] |= np.uint64(1)
        rows[:, (bits - 2) // 64] |= np.uint64(1 << (bits - 2) % 64)
        qs = [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in rows]
        want = [j for j, q in enumerate(qs) if all(q % s and (2 * q + 1) % s for s in odd)]
        assert 0 < len(want) < len(qs)
        assert elgamal._sieve(rows).tolist() == want


def test_key_search_returns_only_a_safe_prime():
    # Three 64-bit candidates that pass the sieve: composite q with prime p
    # (Miller-Rabin on q rejects it), prime q with composite p (Fermat on p),
    # then a safe prime. The rest of the batch is filler drawn, never tested.
    composite_q, composite_p, safe_q = 8784315173636295773, 8895308514877979333, 6059435372757237221
    small = elgamal._small_primes()[0][1:]
    for q in (composite_q, composite_p, safe_q):
        assert all(q % s and (2 * q + 1) % s for s in small)
    assert not elgamal.is_probable_prime(composite_q) and elgamal.is_probable_prime(2 * composite_q + 1)
    assert elgamal.is_probable_prime(composite_p) and not elgamal.is_probable_prime(2 * composite_p + 1)
    filler = [0] * (elgamal._KEY_BATCH - 3)
    p, alpha = elgamal.generate_key_params(64, ScriptedRng([composite_q, composite_p, safe_q] + filler))
    assert p == 2 * safe_q + 1
    assert alpha == min(a for a in range(2, 1000) if pow(a, 2, p) != 1 and pow(a, safe_q, p) != 1)


@pytest.mark.parametrize("pub,priv", ORACLE_PAIRS, ids=[f"{pub.p.bit_length()}bit" for pub, _ in ORACLE_PAIRS])
def test_few_values_take_the_python_int_path_at_both_ends(pub, priv, monkeypatch):
    # A table's dtype alone picks the path: every _table_pows result is
    # uint64 iff p < 2^32, however few its exponents. The sender raises a
    # round's k on its stacked table, the receiver k and x * k on one. Either
    # path must give the sequential rule's bytes, and Python-int publics.
    assert pub.y == pow(pub.alpha, priv.x, pub.p)
    cut = 16  # draw and replay counts on both sides of 16: no batch size changes the path
    most = -(-pub.p.bit_length() // 8)  # bytes per draw at most, so n = draws * most opens with draws
    calls = []  # (exponents, returned uint64) per _table_pows call
    real = elgamal._table_pows

    def spy(table, k, p):
        out = real(table, k, p)
        calls.append((len(k), out.dtype == np.uint64))
        return out

    gathers = pub.p < 2**32
    monkeypatch.setattr(elgamal, "_table_pows", spy)
    for draws in (0, 1, cut - 1, cut, cut + 1, 4 * cut):
        for seed in (0, 3):
            n = draws * most
            calls.clear()
            oracle, batch = Splitmix64(seed), Splitmix64(seed)
            publics, key, _ = sequential_keystream(pub, n, oracle)
            ks = keystream(pub, n, batch)
            assert (list(ks.sender_publics), ks.key_bytes) == (publics, key)
            assert batch._state == oracle._state
            assert {type(d) for d in ks.sender_publics} <= {int}
            assert calls[:1] == ([(draws, gathers)] if draws else [])  # later rounds are smaller
            assert all(gathered == gathers for _, gathered in calls)
    for seed in (0, 3):
        publics = keystream(pub, 4 * cut * most, Splitmix64(seed)).sender_publics
        for m in (0, 1, cut - 1, cut, cut + 1, len(publics)):
            calls.clear()
            head = publics[:m]
            want = sequential_regenerate(head, pub.p, priv, m)
            assert replay_one(head, pub, priv, m, Splitmix64(seed)) == want
            assert calls == [(2 * m, gathers)]
