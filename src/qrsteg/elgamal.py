"""ElGamal key handling and the XOR-keystream variant used for payloads.

Two schemes share the key material. The classic scheme encrypts one
integer unit per ephemeral exponent; its ciphertext is larger than the
message. The stream variant draws a sequence of shared secrets, expands
them into a byte keystream, and XORs that with the payload, so the
ciphertext has exactly the payload's length. The receiver regenerates
the keystream from the sender's public values and its private exponent:
the key bytes of a public value d are those of d^x mod p. stream_encrypt
and stream_decrypt are the byte-domain reference; the stego pipeline
keeps each Keystream and XORs its bits, MSB-first, with the payload bits
at both ends (stego.prepare_payload, stego.decrypt_streams).

The powers alpha^k and y^k have fixed bases, so they come from fixed-base
window tables (Brickell, Gordon, McCurley and Wilson, EUROCRYPT '92;
*Handbook of Applied Cryptography* 14.6.3). A table with w-bit windows
holds ceil(bits(p) / w) rows of 2^w entries, and each power then costs
one modular multiplication per row instead of a square-and-multiply
chain. Each table is built as the array that the one kernel, _table_pows,
gathers from; its dtype (uint64 below 2^32, else Python ints) sets the
width of every power, and a stack of tables of one window raises each
base to the same exponents, their window digits taken once. The kernel
works through its exponents in chunks of _POW_CHUNK, so its memory stays
bounded however long the batch. _window_bits sizes a table's window to
the chains it will serve, at both ends. _key_bytes turns powers into key
bytes. Key generation, key validation and classic_encrypt, which raises
each base once, use builtin pow.

The sender (keystreams) draws the keystreams of several levels, a
frame's four, together: each round raises every level still short of its
bytes on one stacked table of alpha and y, cached on the key object per
window, while each level keeps its own draws and its own stop. The
receiver is given the sender's exponent stream (in v1 it derives from
the stego seed), so replay_keystreams proves a level whole when its
public values d equal the alpha^k. With y = alpha^x, the key
y^k = d^x is alpha^(x * k mod (p - 1)), so the receiver raises one table
of alpha, sized to a whole extract. A level that fails, from a tampered
sidecar or another seed, runs the d^x reference rule
(regenerate_keystream) on every value.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import secrets
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CryptoError, FormatError, quoted

MILLER_RABIN_ROUNDS = 40

# A fixed-base table holds at most this many entries, whatever its window.
_TABLE_MAX_ENTRIES = 1 << 16

# Exponents _table_pows raises per pass.
_POW_CHUNK = 4096

# Moduli below this bound run the keystream on uint64 arrays: a product of
# two residues stays below 2^64.
_UINT64_MODULUS_BOUND = 1 << 32

# Byte i of a value below 2^32 belongs to its minimal encoding iff the value is at least 2^(8i).
_BYTE_FLOORS = np.array([1, 1 << 8, 1 << 16, 1 << 24], dtype=np.uint64)
_LE_UINT32 = np.dtype("<u4")

# Key search: candidates drawn per batch, and how many of the smallest odd
# primes sieve a whole batch before the rest sieve only its survivors.
_KEY_BATCH = 512
_SIEVE_FIRST = 16
MIN_KEY_BITS = 16  # every candidate q >= 2^14 lies above the largest sieve prime
# The key search holds a batch as a 512 x ceil(bits / 64) uint64 array and at
# this size already takes hours; validate refuses a larger p before any
# Miller-Rabin round, which at 14,000 bits takes 6 s each.
MAX_KEY_BITS = 8192


@functools.cache
def _small_primes() -> tuple[tuple[int, ...], np.ndarray]:
    """The primes below 2000; then the odd ones as uint64, for the key search's sieve."""
    limit = 2000
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    primes = tuple(i for i in range(limit) if flags[i])
    return primes, np.array(primes[1:], dtype=np.uint64)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with MILLER_RABIN_ROUNDS random rounds."""
    if n < 2:
        return False
    for p in _small_primes()[0]:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MILLER_RABIN_ROUNDS):
        a = 2 + secrets.randbelow(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fixed_base_table(base: int, p: int, window: int) -> np.ndarray:
    """Row i holds base^(j * 2^(window * i)) mod p for j < 2^window, as the array _table_pows gathers from.

    There are enough rows for every exponent below 2^bits(p). The dtype
    sets every power's width: uint64 below _UINT64_MODULUS_BOUND, else object.
    """
    rows = []
    for _ in range(-(-p.bit_length() // window)):
        row = [1] * (1 << window)
        for j in range(1, 1 << window):
            row[j] = row[j - 1] * base % p
        rows.append(row)
        base = row[-1] * base % p
    return np.array(rows, dtype=np.uint64 if p < _UINT64_MODULUS_BOUND else object)


def _window_bits(bits: int, chains: int) -> int:
    """The window of one table that raises its base to `chains` exponents below 2^bits.

    A table of ceil(bits / w) rows costs 2^w - 1 multiplications a row to
    build, and each chain one a row, so w minimises
    ceil(bits / w) * (2^w - 1 + chains), the smallest such w on a tie, over
    the tables of at most _TABLE_MAX_ENTRIES entries. w = 1 serves an
    empty batch, where no window pays for its table.
    """
    fits = [w for w in range(2, 17) if -(-bits // w) << w <= _TABLE_MAX_ENTRIES]
    return min([1, *fits], key=lambda w: -(-bits // w) * ((1 << w) - 1 + chains))


def _table_pows(table: np.ndarray, k, p: int) -> np.ndarray:
    """base^k mod p for each exponent 0 <= k < 2^bits(p), in the table's dtype: a gather and a product per row.

    table is one (rows, size) table, giving one power per exponent, or a
    stack (t, rows, size) of tables of one window, giving a (t, len(k))
    array whose row j raises table j's base. The exponents go through in
    chunks of _POW_CHUNK, so the gathered factors take bounded memory.
    """
    *_, rows, size = table.shape
    window = size.bit_length() - 1
    shifts = np.arange(0, rows * window, window).astype(table.dtype)[:, None]
    k = np.asarray(k, dtype=table.dtype)
    out = []
    for start in range(0, max(len(k), 1), _POW_CHUNK):  # an empty batch still takes one pass, for the result's shape
        windows = (k[start : start + _POW_CHUNK] >> shifts) & (size - 1)  # row i: window i of each k
        factors = np.moveaxis(table[..., np.arange(rows)[:, None], windows.astype(np.intp)], -2, 0)
        r = factors[0]
        for f in factors[1:]:
            r = r * f % p
        out.append(r)
    return np.concatenate(out, axis=-1)


def _key_bytes(powers: np.ndarray) -> bytes:
    """b"".join(map(int_to_bytes_le, powers)) for a result of _table_pows; a uint64 one expands in one pass."""
    if powers.dtype == object:
        return b"".join(map(int_to_bytes_le, powers))
    if np.count_nonzero(powers) < powers.size:
        raise CryptoError("cannot expand non-positive value 0")
    keep = powers[:, None] >= _BYTE_FLOORS  # row j: which bytes of powers[j] are in its encoding
    return powers.astype(_LE_UINT32).view(np.uint8).reshape(-1, 4)[keep].tobytes()


@dataclass(frozen=True)
class ElGamalPublic:
    """Receiver public key: prime modulus p, primitive root alpha, y = alpha^x mod p.

    keystreams builds the stacked fixed-base table of alpha and y for a
    window on first use and keeps it for the life of the object: for a CIF
    frame, 37 rows of 128 entries each at 256 bits (window 7), and 410 rows
    of 32 (window 5) at 2048 bits. The receiver keeps no table.
    """

    p: int
    alpha: int
    y: int

    def _sender_table(self, window: int) -> np.ndarray:
        """keystreams' stack of the alpha and y tables of this window, built once per object."""
        tables = vars(self).setdefault("_sender_tables", {})  # frozen: kept in __dict__, as _checked is
        if window not in tables:
            tables[window] = np.stack([_fixed_base_table(base, self.p, window) for base in (self.alpha, self.y)])
        return tables[window]

    @cached_property
    def _checked(self) -> bool:
        """The checks validate makes. Cached only when they pass."""
        bits = self.p.bit_length()
        if bits > MAX_KEY_BITS:
            raise CryptoError(f"p has {bits} bits, above the largest supported key size, {MAX_KEY_BITS}")
        if not is_probable_prime(self.p):
            raise CryptoError(f"p = {self.p} is not prime")
        if not 1 < self.alpha < self.p - 1:
            raise CryptoError("alpha out of range (1, p - 1)")
        if not 0 < self.y < self.p:
            raise CryptoError("y out of range (0, p)")
        return True

    def validate(self) -> None:
        """Check that p is prime of at most MAX_KEY_BITS bits, alpha lies in (1, p - 1) and y in (0, p).

        Whether alpha generates the group is not checked: that needs the
        factors of p - 1. Keys this program makes have it proved where the
        generator is chosen (generate_key_params; the demo constants by a test).

        The checks run once per object: the object is frozen, so a pass is
        remembered, while a failing key raises on every call. A key loaded
        afresh is a new object and is checked again; a key generate_key
        searched for enters with its pass recorded.
        """
        self._checked  # raises until the checks pass, then reads the cached pass


@dataclass(frozen=True)
class ElGamalPrivate:
    """Receiver private exponent."""

    x: int

    def __post_init__(self):
        if self.x < 1:
            raise CryptoError(f"private exponent {self.x} must be positive")


def check_key_pair(pub: ElGamalPublic, priv: ElGamalPrivate) -> None:
    """Raise CryptoError unless priv is the private half of pub: alpha^x = y (mod p).

    One builtin pow. A receiver with the wrong x regenerates a keystream
    of noise, or of the wrong length, so stego.StegoConfig checks this when
    it is built, before any decode.
    """
    if pow(pub.alpha, priv.x, pub.p) != pub.y:
        raise CryptoError("private exponent does not match the public key (alpha^x != y mod p)")


@dataclass(frozen=True)
class CipherBundle:
    """Stream-cipher output: sender public values plus XORed payload bytes.

    sender_publics holds one group element per keystream draw; together
    with the receiver's private exponent they regenerate the keystream.
    Trailing entries may contribute only truncated bytes but are kept,
    so regeneration mirrors encryption exactly. stream_decrypt refuses a
    malformed bundle in regenerate_keystream (too few publics) or xor_bytes.
    """

    sender_publics: tuple[int, ...]
    ciphertext: bytes
    plain_len: int


@dataclass(frozen=True)
class Keystream:
    """Expanded key bytes plus the public values needed to regenerate them."""

    sender_publics: tuple[int, ...]
    key_bytes: bytes


# Paper-scale demo parameters, small enough to brute-force in tests.
DEMO_P = 997
DEMO_ALPHA = 809  # a generator: p - 1 = 996 = 2^2 * 3 * 83


def keygen(p: int, alpha: int, rng) -> tuple[ElGamalPublic, ElGamalPrivate]:
    """Draw a private exponent in (1, p - 2) and derive the public key, taking p and alpha as proved.

    rng must expose randrange(start, stop).
    """
    if p < 5:
        raise CryptoError(f"modulus too small for key generation: {p}")
    x = rng.randrange(2, p - 2)
    if not 1 < x < p - 2:
        raise CryptoError(f"private exponent {x} out of range (1, p - 2)")
    return ElGamalPublic(p=p, alpha=alpha, y=pow(alpha, x, p)), ElGamalPrivate(x=x)


def classic_encrypt(m: int, pub: ElGamalPublic, k: int) -> tuple[int, int]:
    """Encrypt one integer unit: returns (alpha^k, y^k * m) mod p."""
    if not 0 <= m <= pub.p - 1:
        raise CryptoError(f"message unit {m} out of range [0, p - 1]")
    if not 1 < k < pub.p - 2:
        raise CryptoError(f"ephemeral exponent {k} out of range (1, p - 2)")
    return pow(pub.alpha, k, pub.p), pow(pub.y, k, pub.p) * m % pub.p


def classic_decrypt(d: int, z: int, pub: ElGamalPublic, priv: ElGamalPrivate) -> int:
    """Invert classic_encrypt: m = d^(p - 1 - x) * z mod p."""
    if not 0 < d < pub.p:
        raise CryptoError(f"invalid ciphertext: d = {d} not in (0, p)")
    if not 0 <= z < pub.p:
        raise CryptoError(f"invalid ciphertext: z = {z} not in [0, p)")
    if priv.x > pub.p - 1:
        raise CryptoError(f"private exponent {priv.x} exceeds p - 1")
    r = pow(d, pub.p - 1 - priv.x, pub.p)
    return r * z % pub.p


def int_to_bytes_le(v: int) -> bytes:
    """Minimal little-endian byte decomposition of a positive integer."""
    if v <= 0:
        raise CryptoError(f"cannot expand non-positive value {v}")
    return v.to_bytes((v.bit_length() + 7) // 8, "little")


def keystream(pub: ElGamalPublic, nbytes: int, rng) -> Keystream:
    """keystreams for one level."""
    return keystreams(pub, nbytes, [rng])[0]


def keystreams(pub: ElGamalPublic, nbytes: int, rngs: Sequence) -> list[Keystream]:
    """One keystream of exactly nbytes per rng, each drawn as if alone.

    Each draw picks a fresh ephemeral exponent k, records alpha^k mod p
    for the receiver, and appends the minimal little-endian bytes of
    y^k mod p to the key. Excess bytes are dropped from the end; the
    public value that produced them is still recorded.

    Each rng must expose randrange_array(start, stop, count), returning
    the next count values of randrange(start, stop) in order (an array or
    a list), as permute.Splitmix64 does. The draws are taken in rounds: a
    draw adds at most ceil(bits(p) / 8) bytes, so a round of
    ceil(remaining / that) draws from each stream still short never takes
    one the sequential rule would not. A round's exponents, from every
    stream, are raised in one _table_pows call on the key's stacked table
    of alpha and y, whose window _window_bits sizes to the first round.
    """
    if nbytes < 0:
        raise CryptoError("requested key length is negative")
    p = pub.p
    most = -(-p.bit_length() // 8)
    publics: list[list[int]] = [[] for _ in rngs]
    parts: list[list[bytes]] = [[] for _ in rngs]
    totals = [0] * len(rngs)
    table = None
    while short := [i for i, total in enumerate(totals) if total < nbytes]:
        draws = [rngs[i].randrange_array(2, p - 2, -(-(nbytes - totals[i]) // most)) for i in short]
        if table is None:
            table = pub._sender_table(_window_bits(p.bit_length(), sum(map(len, draws))))
        alpha_k, y_k = _table_pows(table, np.concatenate([np.asarray(k, table.dtype) for k in draws]), p)
        ends = list(itertools.accumulate(map(len, draws), initial=0))
        for i, a, b in zip(short, ends, ends[1:]):
            publics[i] += alpha_k[a:b].tolist()
            parts[i].append(_key_bytes(y_k[a:b]))
            totals[i] += len(parts[i][-1])
    return [Keystream(tuple(d), b"".join(key)[:nbytes]) for d, key in zip(publics, parts)]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise CryptoError("XOR operands differ in length")
    n = len(a)
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(n, "little")


def stream_encrypt(plain: bytes, pub: ElGamalPublic, rng) -> CipherBundle:
    """XOR the payload with a fresh keystream; no ciphertext expansion."""
    ks = keystream(pub, len(plain), rng)
    return CipherBundle(
        sender_publics=ks.sender_publics,
        ciphertext=xor_bytes(plain, ks.key_bytes),
        plain_len=len(plain),
    )


def regenerate_keystream(sender_publics: tuple[int, ...], p: int, priv: ElGamalPrivate, nbytes: int) -> bytes:
    """The receiver's keystream by the d^x rule: the bytes of d^x mod p for every sender public value d.

    The reference rule: a range check of every value, then one builtin pow
    per value. replay_keystreams gives the same bytes faster, given the
    sender's rng.
    """
    if sender_publics and (min(sender_publics) <= 0 or max(sender_publics) >= p):
        bad = next(d for d in sender_publics if not 0 < d < p)
        raise CryptoError(f"sender public value {bad} out of range (0, p)")
    return _receiver_key(b"".join(int_to_bytes_le(pow(d, priv.x, p)) for d in sender_publics), nbytes)


def replay_keystreams(
    levels: Sequence[tuple[Sequence[int], object]], pub: ElGamalPublic, priv: ElGamalPrivate, nbytes: int
) -> list[bytes]:
    """regenerate_keystream's bytes for each level (sender_publics, rng), from the sender's exponents where rng replays them.

    Each rng is the stream the sender drew its level from (for a stego
    frame, payload_rng of its key, level and frame), so its next
    len(sender_publics) draws are the sender's k in order, whatever its
    rounds were. Only alpha is raised, to each k and to x * k mod (p - 1),
    on one table shared by all levels, its window sized by _window_bits to
    those two chains per value. When a level's public values equal its alpha^k
    exactly, the level is proved whole and its key is the bytes of
    alpha^(x * k) = y^k = d^x. Otherwise, from a tampered sidecar or
    another stream, the whole level takes the d^x reference,
    regenerate_keystream, which also range-checks every value. Levels are
    settled in order, so the first that fails raises.

    alpha^(x * k mod (p - 1)) = d^x needs p prime and y = alpha^x (mod p),
    so callers pass a proved pair (validate and check_key_pair, which
    stego.StegoConfig runs when built): under another x a proved level
    gives the sender's keystream, not d^x.
    """
    p = pub.p
    x = priv.x % (p - 1)
    table = _fixed_base_table(pub.alpha, p, _window_bits(p.bit_length(), 2 * sum(len(d) for d, _ in levels)))
    ks = [np.asarray(rng.randrange_array(2, p - 2, len(publics)), table.dtype) for publics, rng in levels]
    k = np.concatenate([np.empty(0, table.dtype), *ks])  # x * k stays below 2^64 on uint64
    powers = _table_pows(table, np.concatenate((k, k * x % (p - 1))), p)
    alpha_k, keys = powers[: len(k)].tolist(), powers[len(k) :]
    ends = list(itertools.accumulate(map(len, ks), initial=0))
    return [
        _receiver_key(_key_bytes(keys[a:b]), nbytes)
        if alpha_k[a:b] == list(publics)
        else regenerate_keystream(tuple(publics), p, priv, nbytes)
        for (publics, _), a, b in zip(levels, ends, ends[1:])
    ]


def _receiver_key(key: bytes, nbytes: int) -> bytes:
    """The first nbytes of a regenerated keystream, refusing one too short to cover them."""
    if len(key) < nbytes:
        raise CryptoError(
            f"corrupt bundle: regenerated keystream has {len(key)} bytes, need {nbytes}"
        )
    return key[:nbytes]


def stream_decrypt(bundle: CipherBundle, p: int, priv: ElGamalPrivate) -> bytes:
    """Invert stream_encrypt using the receiver's private exponent."""
    key = regenerate_keystream(bundle.sender_publics, p, priv, bundle.plain_len)
    return xor_bytes(bundle.ciphertext, key)


def generate_key_params(bits: int, rng) -> tuple[int, int]:
    """Find a safe prime p = 2q + 1 of the given size and a generator alpha.

    q is the first candidate getrandbits(bits - 1) | 2^(bits - 2) | 1 for
    which q and p are both prime (docs/wire_format.md, "Seeded keygen").
    Candidates come _KEY_BATCH at a time and are sieved together (Wiener,
    "Safe Prime Generation with a Combined Sieve", 2003): a candidate goes
    when an odd prime s below 2000 divides q or p (_sieve). Survivors are
    tested in draw order: first 2^(p - 1) = 1 (mod p), then Miller-Rabin on
    q in MILLER_RABIN_ROUNDS, which stops at its first failing round. With q
    prime, q > sqrt(p), 2^(2q) = 1 and gcd(2^2 - 1, p) = 1 (the sieve rejects
    3 | p), Pocklington's criterion alone proves p prime (*Handbook of
    Applied Cryptography*, ch. 4): no Miller-Rabin round runs on p.

    An rng with peek_getrandbits (permute.Splitmix64) is left just past the
    accepted candidate, where a loop of getrandbits calls leaves it, so its
    next draws are the same. Any other rng draws each batch whole by
    getrandbits calls, and its state afterwards is not defined.

    With p - 1 = 2q, alpha is a primitive root iff alpha^2 != 1 and
    alpha^q != 1 (mod p), so the generator check here is exact.
    """
    if not MIN_KEY_BITS <= bits <= MAX_KEY_BITS:
        raise CryptoError(f"key size {bits} is outside the supported {MIN_KEY_BITS} to {MAX_KEY_BITS} bits")
    k = bits - 1
    peek = getattr(rng, "peek_getrandbits", None)
    found = None
    while found is None:
        rows = peek(k, _KEY_BATCH) if peek else _getrandbits_rows(rng, k, _KEY_BATCH)
        rows[:, 0] |= np.uint64(1)
        rows[:, (bits - 2) // 64] |= np.uint64(1 << (bits - 2) % 64)
        found = _first_safe_prime(rows)
        if peek:
            rng.skip_getrandbits(k, _KEY_BATCH if found is None else found[0] + 1)
    q = found[1]
    p = 2 * q + 1
    for alpha in range(2, 1000):
        if pow(alpha, 2, p) != 1 and pow(alpha, q, p) != 1:
            return p, alpha
    raise CryptoError("no generator found below 1000 (astronomically unlikely)")


def generate_key(bits: int, rng) -> tuple[ElGamalPublic, ElGamalPrivate]:
    """keygen on a fresh safe prime and generator from generate_key_params, the public key already proved.

    The search proves p (Pocklington) and alpha (a generator, so 1 < alpha < p - 1),
    and y = alpha^x is then in (0, p): every check validate makes holds, so
    its pass is recorded instead of 40 more Miller-Rabin rounds on p.
    """
    pub, priv = keygen(*generate_key_params(bits, rng), rng)
    vars(pub)["_checked"] = True  # where the cached_property keeps validate's pass
    return pub, priv


def _getrandbits_rows(rng, k: int, count: int) -> np.ndarray:
    """count getrandbits(k) calls of rng, as rows of little-endian uint64 words."""
    size = 8 * -(-k // 64)
    data = b"".join(rng.getrandbits(k).to_bytes(size, "little") for _ in range(count))
    return np.frombuffer(data, dtype="<u8").reshape(count, -1).copy()


@functools.cache
def _sieve_stages(words: int) -> list[tuple]:
    """(M, 2^(64i) mod M for word i < words, the M of each s, s, (s - 1) / 2) per stage of the odd sieve primes s.

    Each stage's primes are grouped, in order, into products M below 2^32.
    A prime s >= q must not reject q = s. None can: bits >= MIN_KEY_BITS, so
    every candidate is at least 2^14 = 16,384, above the largest sieve prime, 1,999.
    """
    stages = []
    for s in np.split(_small_primes()[1], [_SIEVE_FIRST]):
        moduli, group = [1], []
        for prime in s.tolist():
            if moduli[-1] * prime >= _UINT64_MODULUS_BOUND:
                moduli.append(1)
            moduli[-1] *= prime
            group.append(len(moduli) - 1)
        weights = np.array([[(1 << 64 * i) % m for m in moduli] for i in range(words)], dtype=np.uint64)
        stages.append((np.array(moduli, dtype=np.uint64), weights, group, s, s >> np.uint64(1)))
    return stages


def _sieve(rows: np.ndarray) -> np.ndarray:
    """Indexes of the rows q, as uint64 words low first, for which no sieve prime s divides q or 2q + 1.

    s | 2q + 1 iff q = (s - 1) / 2 (mod s). q mod M is the sum over words i
    of (word mod M) * (2^(64i) mod M) mod M, each term below 2^32, so no
    uint64 step overflows; then q mod s = (q mod M) mod s.
    """
    alive = np.arange(len(rows))
    for moduli, weights, group, s, half in _sieve_stages(rows.shape[1]):
        r = (rows[alive, :, None] % moduli * weights % moduli).sum(axis=1) % moduli
        r = r[:, group] % s
        alive = alive[((r != 0) & (r != half)).all(axis=1)]
    return alive


def _first_safe_prime(rows: np.ndarray) -> tuple[int, int] | None:
    """(index, q) of the first row q, as uint64 words low first, for which q and 2q + 1 are prime; None if there is none."""
    for j in _sieve(rows).tolist():
        q = int.from_bytes(rows[j].astype("<u8").tobytes(), "little")
        p = 2 * q + 1
        if pow(2, p - 1, p) == 1 and is_probable_prime(q):
            return j, q
    return None


# --- key files -------------------------------------------------------------
#
# Structured text with decimal-string fields so arbitrary-precision values
# survive any JSON reader. See docs/wire_format.md.

PUBLIC_KIND = "elgamal-public"
PRIVATE_KIND = "elgamal-private"


def save_public_key(pub: ElGamalPublic, path: str | Path) -> None:
    """Write the public key once validate passes, so load_public_key reads back every file written."""
    pub.validate()
    doc = {"kind": PUBLIC_KIND, "p": str(pub.p), "alpha": str(pub.alpha), "y": str(pub.y)}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")


def save_private_key(priv: ElGamalPrivate, path: str | Path) -> None:
    """Write the private key readable by its owner only (mode 0600), over any existing file."""
    doc = {"kind": PRIVATE_KIND, "x": str(priv.x)}
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w", encoding="ascii") as out:
        os.fchmod(fd, 0o600)  # O_CREAT's mode applies only to a file it creates
        out.write(json.dumps(doc, indent=2) + "\n")


# int() reads at most sys.get_int_max_str_digits() digits, 4,300 by default. A value
# of that many significant digits is past every bound a reader checks (p has at most
# MAX_KEY_BITS bits, 2,467 digits), so a longer one is cut to that many.
_DECIMAL_DIGITS_MAX = 4300


def parse_decimals(texts: list) -> list[int]:
    """Integers stored as decimal strings, as the key and sidecar writers store them.

    Each text is ASCII digits after at most one leading "-": int() alone
    would also take spaces, "+", "_" and non-ASCII digits. A text is read
    by its value at any length (_by_value).
    """
    try:
        digits = "".join(texts).replace("-", "")  # join refuses a JSON number, boolean or null
    except TypeError:
        digits = None
    if digits is None or (digits and not (digits.isascii() and digits.isdigit())):
        bad = next(t for t in texts if not (isinstance(t, str) and t.isascii() and t.replace("-", "").isdigit()))
        raise ValueError(f"{quoted(bad)} is not a decimal string")
    try:
        return list(map(int, texts))
    except ValueError:  # an empty text, a "-" after the first character, or more digits than int() reads
        return list(map(_by_value, texts))


def _by_value(text: str) -> int:
    """One text parse_decimals's form check passed, read with its leading zeros dropped
    and its significant digits cut to _DECIMAL_DIGITS_MAX."""
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    if not digits or "-" in digits:
        raise ValueError(f"{quoted(text)} is not a decimal string")
    return int(sign + (digits.lstrip("0")[:_DECIMAL_DIGITS_MAX] or "0"))


def _load_key_fields(path: str | Path, kind: str, names: tuple[str, ...]) -> list[int]:
    try:
        doc = json.loads(Path(path).read_text(encoding="ascii"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not ASCII or not JSON
        raise FormatError(f"cannot read key file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise FormatError(f"{path} is not a {kind} file")
    try:
        return parse_decimals([doc[name] for name in names])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad {kind} fields in {path}: {exc}") from exc


def load_public_key(path: str | Path) -> ElGamalPublic:
    """The public key in path, proved by validate; a failure names the file."""
    public = ElGamalPublic(*_load_key_fields(path, PUBLIC_KIND, ("p", "alpha", "y")))
    try:
        public.validate()
    except CryptoError as exc:
        raise CryptoError(f"public key {path}: {exc}") from exc
    return public


def load_private_key(path: str | Path) -> ElGamalPrivate:
    return ElGamalPrivate(*_load_key_fields(path, PRIVATE_KIND, ("x",)))
