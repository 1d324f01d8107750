import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsteg import permute
from qrsteg.errors import FormatError
from qrsteg.permute import (
    Permutation,
    Splitmix64,
    StegoKey,
    derive_seed,
    fnv1a64,
    invert,
    keyed_permutation,
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
    assert keyed_permutation(key, 0, 1).forward.tolist() == [0]
    assert keyed_permutation(key, 0, 0).forward.size == 0


def test_permutation_determinism_at_capacity_size():
    key = StegoKey(seed=0xABCDEF)
    a = keyed_permutation(key, permute.TAG_COEFF_HL, 25_344)
    b = keyed_permutation(key, permute.TAG_COEFF_HL, 25_344)
    assert np.array_equal(a.forward, b.forward)


def test_zero_key_zero_tag_is_still_shuffled():
    # The degenerate key must map to a fixed shuffle, never the identity order.
    perm = keyed_permutation(StegoKey(seed=0), 0, 4096)
    assert not np.array_equal(perm.forward, np.arange(4096))


def test_bijectivity_over_keys_and_tags():
    rng = np.random.default_rng(17)
    for _ in range(20):
        key = StegoKey(seed=int(rng.integers(0, 2**63)))
        tag = int(rng.integers(0, 2**63))
        n = int(rng.integers(0, 500))
        perm = keyed_permutation(key, tag, n)
        assert sorted(perm.forward.tolist()) == list(range(n))


def test_distinct_tags_give_distinct_shuffles():
    rng = np.random.default_rng(99)
    for _ in range(100):
        key = StegoKey(seed=int(rng.integers(0, 2**64, dtype=np.uint64)))
        perms = [keyed_permutation(key, tag, 1024).forward for tag in ALL_TAGS]
        for i in range(len(perms)):
            for j in range(i + 1, len(perms)):
                assert not np.array_equal(perms[i], perms[j])


def test_invert_hand_examples():
    ident = Permutation(forward=np.arange(5))
    assert np.array_equal(invert(ident).forward, ident.forward)
    perm = Permutation(forward=np.array([2, 0, 1]))
    assert invert(perm).forward.tolist() == [1, 2, 0]


def test_invert_rejects_non_bijection():
    with pytest.raises(FormatError):
        invert(Permutation(forward=np.array([0, 0, 2])))
    with pytest.raises(FormatError):
        invert(Permutation(forward=np.array([0, 3, 1])))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2000))
def test_apply_invert_roundtrip(seed, tag, n):
    perm = keyed_permutation(StegoKey(seed=seed), tag, n)
    values = np.arange(n) * 7 + 3
    shuffled = values[perm.forward]
    assert np.array_equal(shuffled[invert(perm).forward], values)
    assert invert(perm).forward[perm.forward].tolist() == list(range(n))


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
