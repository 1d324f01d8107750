import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsteg import permute
from qrsteg.errors import FormatError
from qrsteg.permute import (
    Splitmix64,
    StegoKey,
    derive_seed,
    fnv1a64,
    invert,
    keyed_permutation,
    keyed_permutations,
    prng_next,
)

ALL_TAGS = (
    permute.TAG_COEFF_HL,
    permute.TAG_COEFF_HH,
    permute.TAG_CHROMA_U,
    permute.TAG_CHROMA_V,
    permute.TAG_PAYLOAD_L,
    permute.TAG_PAYLOAD_M,
    permute.TAG_PAYLOAD_Q,
    permute.TAG_PAYLOAD_H,
)

# SHA-256 of keyed_permutation(...).tobytes(), taken from the scalar
# Fisher-Yates loop; any faster implementation must reproduce them exactly.
KAT_SEED = 0x0123456789ABCDEF
KAT_CIF_DIGESTS = {
    permute.TAG_COEFF_HL: "d2572e4803fff0a3b5a9df7f9b6d1fa2549875506592b4bb1019918821131ad2",
    permute.TAG_COEFF_HH: "c25c299105f4c2b434d805789b251918ad27a38e7f4b3ac90f065d5eff79307f",
    permute.TAG_CHROMA_U: "ad4d349f17207d775379cb308caca127b7397ffff2edec030db1855338510636",
    permute.TAG_CHROMA_V: "c491a8338f78b2174f846d443b9f3e02dad292b668a2885c1a6fe6bf34db53f1",
    permute.TAG_PAYLOAD_L: "1330bc6bb6badd7bea915ee223bc9e02ee05fea2ae95427b76f1021b2d2d6ead",
    permute.TAG_PAYLOAD_M: "ef60ad944d087c51c1b30dcb0cf5e51da9f3cc83ca68179f3b001b26069e76cb",
    permute.TAG_PAYLOAD_Q: "cb5f5956668ec0666591454dc5d35b992401226db898ed155dcfee71c8fcbbb6",
    permute.TAG_PAYLOAD_H: "88659f2fe3bfd37343c90f8b5c7a6a4a5ebcbc73fb66e964aec8bf3c3b61ed88",
}
KAT_SMALL_DIGESTS = {  # (seed, n) under TAG_COEFF_HL
    (0, 2): "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
    (0, 3): "0f004f117335020e1d19c25b8767278bf1edb2fa6ff3fac943d843b6003d0eb5",
    (0, 1000): "9abab4e904f3c351ec73ca4cff4ef2ed56d19fbfc9cdda3d25c3f1b0587ca158",
    (2**64 - 1, 2): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    (2**64 - 1, 3): "53afea624a503a0bf39e469e8979f67fcb1890ea0392adf9e155124f5ede9ebb",
    (2**64 - 1, 1000): "8b80143f6bd5df9e74b9722d013da9fab57a27c6b98c6bf209ff47041a3f9dd5",
}
# One 1080p chroma plane (960 x 540 = 518,400 elements) under TAG_CHROMA_U.
KAT_1080P_CHROMA_DIGEST = "80eba2768f7ecdc96979dcda9b6acb56872a7fc73ff55ef82f37320540313c39"


def _perm_digest(seed, tag, n):
    return hashlib.sha256(keyed_permutation(StegoKey(seed=seed), tag, n).tobytes()).hexdigest()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_permutation_known_answer_cif(tag):
    assert _perm_digest(KAT_SEED, tag, 25_344) == KAT_CIF_DIGESTS[tag]


@pytest.mark.parametrize("seed,n", sorted(KAT_SMALL_DIGESTS))
def test_permutation_known_answer_small(seed, n):
    assert _perm_digest(seed, permute.TAG_COEFF_HL, n) == KAT_SMALL_DIGESTS[(seed, n)]


def test_permutation_known_answer_1080p_chroma():
    assert _perm_digest(KAT_SEED, permute.TAG_CHROMA_U, 518_400) == KAT_1080P_CHROMA_DIGEST


def _scalar_swap_indexes(state, moduli):
    """Reference draws: one prng_next step per try, rejecting v >= 2^64 - 2^64 % m."""
    out, rejections = [], 0
    for m in moduli:
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            state, v = prng_next(state)
            if v < limit:
                break
            rejections += 1
        out.append(v % m)
    return out, rejections


def _scalar_keyed_permutation(seed, tag, n):
    """Reference Fisher-Yates over a list, drawing swaps with _scalar_swap_indexes."""
    swaps, _ = _scalar_swap_indexes((seed ^ tag) & permute.MASK64, range(n, 1, -1))
    buf = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), swaps):
        buf[i], buf[j] = buf[j], buf[i]
    return buf


def _swap_indexes(state, moduli):
    """permute._swap_indexes for moduli in draw order: laid out by step, with their draws."""
    m = np.array(moduli[::-1], dtype=np.uint64)
    v = permute._mix(state, np.arange(m.size, 0, -1, dtype=np.uint64))
    return permute._swap_indexes(state, m, v)[::-1]


MIXED_MODULI = [2, 3, 2**63 + 1, 2**63, 2**64 - 1, 3 * 2**62 + 1, 1000, 2**32, 2**62 + 3, 1,
                2**63 + 1, 5, 2**63 + 2**62 + 7, 2**40, 2**63 + 1, 2**63 + 1, 25_344]


@pytest.mark.parametrize("state", [0, 5, 123456789, 2**64 - 1])
@pytest.mark.parametrize("moduli", [[2**63 + 1] * 64, MIXED_MODULI], ids=["half-rejected", "mixed"])
def test_swap_indexes_match_scalar_rejection_oracle(state, moduli):
    expected, rejections = _scalar_swap_indexes(state, moduli)
    assert rejections > 0  # the rejection branch is really exercised
    got = _swap_indexes(state, moduli)
    assert got.dtype == np.uint64
    assert got.tolist() == expected


def _state_whose_first_draw_is(v):
    """Invert the SplitMix64 output mix, so prng_next(state) yields v."""
    mask = permute.MASK64
    v ^= (v >> 31) ^ (v >> 62)
    v = (v * pow(permute._MIX2, -1, 1 << 64)) & mask
    v ^= (v >> 27) ^ (v >> 54)
    v = (v * pow(permute._MIX1, -1, 1 << 64)) & mask
    v ^= (v >> 30) ^ (v >> 60)
    return (v - permute._GOLDEN) & mask


# 274177 divides 2^64 + 1, so its smallest rejected draw is 2^64 - m + 1, the
# lowest draw the pre-check lets through to the exact loop.
@pytest.mark.parametrize("m", [3, 1000, 274_177, 2**63 + 1, 3 * 2**62 + 1, 2**64 - 1])
def test_swap_indexes_rejection_boundary(m):
    # The largest accepted draw is 2^64 - 1 - (2^64 mod m); one more is rejected.
    largest = (1 << 64) - 1 - (1 << 64) % m
    for first, accepted in ((largest, True), (largest + 1, False)):
        state = _state_whose_first_draw_is(first)
        assert prng_next(state)[1] == first
        assert (_scalar_swap_indexes(state, [m])[1] == 0) == accepted
        moduli = [m, m, 7]
        got = _swap_indexes(state, moduli)
        assert got.tolist() == _scalar_swap_indexes(state, moduli)[0]


@pytest.mark.parametrize("n", [3, 1000, 25_344])
@pytest.mark.parametrize("rejected", [False, True], ids=["flagged-accepted", "rejected"])
def test_keyed_permutation_takes_the_exact_route_for_a_flagged_draw(n, rejected):
    # The first draw belongs to step n - 1 (modulus n). Every draw at or above
    # 2^64 - n + 1 is flagged by the scalar pre-check; below 2^64 - 2^64 mod n it
    # is still accepted, at or above it is rejected.
    limit = (1 << 64) - (1 << 64) % n
    first = limit if rejected else limit - 1
    assert first >= (1 << 64) - n + 1
    tag = permute.TAG_CHROMA_U
    seed = _state_whose_first_draw_is(first) ^ tag
    assert _scalar_swap_indexes(seed ^ tag, [n])[1] == int(rejected)
    perm = keyed_permutation(StegoKey(seed=seed), tag, n)
    assert perm.tolist() == _scalar_keyed_permutation(seed, tag, n)


@settings(max_examples=50)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.one_of(st.integers(1, 2**64 - 1), st.integers(2**63 + 1, 2**63 + 2**62)),
             max_size=40),
)
def test_swap_indexes_match_scalar_oracle_on_random_moduli(state, moduli):
    got = _swap_indexes(state, moduli)
    assert got.tolist() == _scalar_swap_indexes(state, moduli)[0]


def _scalar_resolve_swaps(j):
    """Reference: run the swaps of steps s = n - 1 down to 1 one by one."""
    buf = list(range(len(j)))
    for s in range(len(j) - 1, 0, -1):
        buf[s], buf[j[s]] = buf[j[s]], buf[s]
    return buf


def _mixed_swaps(n, seed):
    rng = np.random.default_rng(seed)
    j = rng.integers(0, np.arange(1, n + 1), dtype=np.int64)
    keep = rng.random(n) < 0.3
    j[keep] = np.arange(n)[keep]
    return j


SWAP_LISTS = {
    "empty": np.zeros(0, dtype=np.int64),
    "single": np.zeros(1, dtype=np.int64),
    "all-self": np.arange(1000, dtype=np.int64),
    "all-zero": np.zeros(1000, dtype=np.int64),
    # j_s = s - 1: one chain through every position, the deepest doubling.
    "neighbour-chain": np.maximum(np.arange(4097, dtype=np.int64) - 1, 0),
    "mixed-self-small": _mixed_swaps(7, 1),
    "mixed-self": _mixed_swaps(3000, 2),
    "five-groups": np.arange(3000, dtype=np.int64) % 5,
}


@pytest.mark.parametrize("name", sorted(SWAP_LISTS))
def test_resolve_swaps_matches_scalar_loop(name):
    j = SWAP_LISTS[name]
    assert (0 <= j).all() and (j <= np.arange(j.size)).all()
    got = permute._resolve_swaps(j, np.arange(j.size))
    assert got.dtype == np.int64
    assert got.tolist() == _scalar_resolve_swaps(j.tolist())


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2**32), max_size=60), st.booleans())
def test_resolve_swaps_matches_scalar_loop_on_random_lists(draws, selfish):
    # draws[s] picks j_s in [0, s]; selfish turns every third step into a self-swap.
    j = [v % (s + 1) for s, v in enumerate(draws)]
    if selfish:
        j = [s if s % 3 == 0 else v for s, v in enumerate(j)]
    got = permute._resolve_swaps(np.array(j, dtype=np.int64), np.arange(len(j)))
    assert got.tolist() == _scalar_resolve_swaps(j)


@settings(max_examples=30)
@given(st.integers(0, 2**64 - 1), st.sampled_from(ALL_TAGS), st.integers(0, 300))
def test_keyed_permutation_matches_scalar_fisher_yates(seed, tag, n):
    perm = keyed_permutation(StegoKey(seed=seed), tag, n)
    assert perm.dtype == np.int64
    assert perm.tolist() == _scalar_keyed_permutation(seed, tag, n)


def test_prng_first_output_from_zero_state():
    state, value = prng_next(0)
    assert value == 0xE220A8397B1DCDAF
    assert state == 0x9E3779B97F4A7C15


def test_prng_is_deterministic():
    assert prng_next(12345) == prng_next(12345)


def test_prng_long_run_stays_in_64_bits():
    state = 0xDEADBEEF
    seen_high = False
    for _ in range(1_000_000):
        state, v = prng_next(state)
        if v >> 63:
            seen_high = True
    assert 0 <= state <= permute.MASK64
    assert seen_high  # top bit gets exercised


def test_fnv1a64_reference_values():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_stego_key_from_passphrase():
    key = StegoKey.from_passphrase("a")
    assert key.seed == 0xAF63DC4C8601EC8C
    assert StegoKey.from_passphrase("a") == key
    assert len(key.fingerprint()) == 16


def test_trivial_permutations():
    key = StegoKey(seed=1)
    assert keyed_permutation(key, 0, 1).tolist() == [0]
    assert keyed_permutation(key, 0, 0).size == 0


@pytest.mark.parametrize("n", [0, 1, 2, 7, 25_344])
def test_keyed_permutations_is_keyed_permutation_per_tag(n):
    key = StegoKey(seed=KAT_SEED)
    tags = [*ALL_TAGS, permute.TAG_COEFF_HL]  # a repeated tag gives the same array again
    perms = keyed_permutations(key, tags, n)
    assert len(perms) == len(tags)
    for tag, perm in zip(tags, perms):
        assert perm.dtype == np.int64
        assert np.array_equal(perm, keyed_permutation(key, tag, n))
    assert np.array_equal(perms[0], perms[-1]) and perms[0] is not perms[-1]


def test_permutation_determinism_at_capacity_size():
    key = StegoKey(seed=0xABCDEF)
    a = keyed_permutation(key, permute.TAG_COEFF_HL, 25_344)
    b = keyed_permutation(key, permute.TAG_COEFF_HL, 25_344)
    assert np.array_equal(a, b)


def test_zero_key_zero_tag_is_still_shuffled():
    # The degenerate key must map to a fixed shuffle, never the identity order.
    perm = keyed_permutation(StegoKey(seed=0), 0, 4096)
    assert not np.array_equal(perm, np.arange(4096))


def test_bijectivity_over_keys_and_tags():
    rng = np.random.default_rng(17)
    for _ in range(20):
        key = StegoKey(seed=int(rng.integers(0, 2**63)))
        tag = int(rng.integers(0, 2**63))
        n = int(rng.integers(0, 500))
        perm = keyed_permutation(key, tag, n)
        assert sorted(perm.tolist()) == list(range(n))


def test_distinct_tags_give_distinct_shuffles():
    rng = np.random.default_rng(99)
    for _ in range(100):
        key = StegoKey(seed=int(rng.integers(0, 2**64, dtype=np.uint64)))
        perms = [keyed_permutation(key, tag, 1024) for tag in ALL_TAGS]
        for i in range(len(perms)):
            for j in range(i + 1, len(perms)):
                assert not np.array_equal(perms[i], perms[j])


def test_invert_hand_examples():
    ident = np.arange(5)
    assert np.array_equal(invert(ident), ident)
    assert invert(np.array([2, 0, 1])).tolist() == [1, 2, 0]


def test_invert_rejects_non_bijection():
    with pytest.raises(FormatError):
        invert(np.array([0, 0, 2]))
    with pytest.raises(FormatError):
        invert(np.array([0, 3, 1]))


@settings(max_examples=100)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2000))
def test_apply_invert_roundtrip(seed, tag, n):
    perm = keyed_permutation(StegoKey(seed=seed), tag, n)
    values = np.arange(n) * 7 + 3
    shuffled = values[perm]
    assert np.array_equal(shuffled[invert(perm)], values)
    assert invert(perm)[perm].tolist() == list(range(n))


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(42, permute.TAG_KEY_DRAW, 0, 7)
    assert a == derive_seed(42, permute.TAG_KEY_DRAW, 0, 7)
    assert a != derive_seed(42, permute.TAG_KEY_DRAW, 0, 8)
    assert a != derive_seed(43, permute.TAG_KEY_DRAW, 0, 7)


def test_splitmix_randrange_bounds_and_determinism():
    rng = Splitmix64(1)
    values = [rng.randrange(2, 995) for _ in range(2000)]
    assert min(values) >= 2 and max(values) <= 994
    rng2 = Splitmix64(1)
    assert values == [rng2.randrange(2, 995) for _ in range(2000)]
    wide = Splitmix64(2).randrange(0, 1 << 200)
    assert 0 <= wide < 1 << 200


def test_splitmix_getrandbits_masks_correctly():
    rng = Splitmix64(3)
    for k in (1, 8, 63, 64, 65, 130):
        assert 0 <= rng.getrandbits(k) < 1 << k


def test_splitmix_peek_getrandbits_is_the_getrandbits_loop():
    for k in (1, 15, 63, 64, 65, 255, 256):
        rng, oracle = Splitmix64(k), Splitmix64(k)
        rows = rng.peek_getrandbits(k, 7)
        assert rng._state == Splitmix64(k)._state  # peeking draws nothing
        assert [sum(int(w) << 64 * i for i, w in enumerate(row)) for row in rows] == [
            oracle.getrandbits(k) for _ in range(7)
        ]
        rng.skip_getrandbits(k, 7)
        assert rng._state == oracle._state


def _words_drawn(before: int, after: int) -> int:
    """How many 64-bit draws took a Splitmix64 state from before to after."""
    return (after - before) * pow(permute._GOLDEN, -1, 1 << 64) % (1 << 64)


# (start, stop) by bit length of the width: 1, 2, 10, 11, 63, 64, 65, 256, 257;
# each 2^b + 1 width rejects nearly half of its attempts.
RANDRANGE_CASES = [
    (0, 1), (5, 6), (0, 2), (2, 5), (2, 995), (0, 2**10 + 1),
    (0, 2**62 + 1), (0, 2**63 - 25), (3, 2**63 + 4), (0, 2**64 - 59),
    (0, 2**64 + 1), (7, 2**65 - 3), (0, 2**255 + 1), (2, 2**256 - 189),
    (0, 2**256 + 1), (0, 2**257 - 93), (-40, 60), (2**64, 2**64 + 1000),
]


@pytest.mark.parametrize("start,stop", RANDRANGE_CASES)
def test_randrange_array_matches_scalar_randrange(start, stop):
    words = -(-(stop - start).bit_length() // 64)
    heavy = stop - start > 2 and (stop - start - 1) & (stop - start - 2) == 0  # a 2^b + 1 width
    for seed in (0, 1, 2**64 - 1, 0x0123456789ABCDEF):
        for count in (0, 1, 2, 3, 17, 1000):
            scalar, batch = Splitmix64(seed), Splitmix64(seed)
            expected = [scalar.randrange(start, stop) for _ in range(count)]
            got = batch.randrange_array(start, stop, count)
            assert got.tolist() == expected
            assert batch._state == scalar._state
            assert got.dtype == (np.uint64 if words == 1 and 0 <= start < stop <= 2**64 else object)
            rejected = _words_drawn(seed, batch._state) // words - count
            assert rejected >= 0
            if heavy and count == 1000:
                assert rejected > 250  # rejection sampling really ran


def test_randrange_array_continues_the_scalar_stream():
    scalar, batch = Splitmix64(9), Splitmix64(9)
    expected = [scalar.randrange(2, 995) for _ in range(600)]
    got = [batch.randrange(2, 995)]
    for count in (0, 5, 94, 400, 99, 1):
        got += batch.randrange_array(2, 995, count).tolist()
    assert got == expected and batch._state == scalar._state


def test_randrange_array_rejects_empty_range():
    with pytest.raises(ValueError):
        Splitmix64(0).randrange_array(5, 5, 3)
