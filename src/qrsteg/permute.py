"""Keyed deterministic permutations and the 64-bit generator behind them.

Everything here is pinned to the bit so an extractor built from the wire
format document alone reproduces the exact shuffles: SplitMix64 as the
generator, Fisher-Yates with rejection sampling for unbiased swaps, and
one fixed domain tag per shuffled stream so the same key never reuses a
permutation across carriers. See docs/wire_format.md for the constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3

# Domain tags (fixed wire constants).
TAG_COEFF_HL = 0x484C000000000001
TAG_COEFF_HH = 0x4848000000000002
TAG_CHROMA_U = 0x5500000000000003
TAG_CHROMA_V = 0x5600000000000004
TAG_PAYLOAD_L = 0x5000000000000005
TAG_PAYLOAD_M = 0x5000000000000006
TAG_PAYLOAD_Q = 0x5000000000000007
TAG_PAYLOAD_H = 0x5000000000000008
TAG_KEY_DRAW = 0x4B00000000000009


def prng_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (new_state, output value)."""
    state = (state + _GOLDEN) & MASK64
    v = state
    v = ((v ^ (v >> 30)) * _MIX1) & MASK64
    v = ((v ^ (v >> 27)) * _MIX2) & MASK64
    v ^= v >> 31
    return state, v


def fnv1a64(data: bytes) -> int:
    h = FNV64_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV64_PRIME) & MASK64
    return h


@dataclass(frozen=True)
class StegoKey:
    """The single 64-bit seed driving every permutation in a run."""

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed <= MASK64:
            raise FormatError("stego seed must fit in 64 bits")

    @classmethod
    def from_passphrase(cls, text: str) -> "StegoKey":
        return cls(seed=fnv1a64(text.encode("utf-8")))

    def fingerprint(self) -> str:
        """Hex FNV-1a of the seed's 8-byte little-endian form, for sidecars."""
        return format(fnv1a64(self.seed.to_bytes(8, "little")), "016x")


def derive_seed(base: int, *parts: int) -> int:
    """Fold stream labels (tags, frame indexes) into a child seed."""
    state = base & MASK64
    for part in parts:
        _, state = prng_next((state ^ part) & MASK64)
    return state


class Splitmix64:
    """Deterministic random stream with the small Random-like surface we need."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state, v = prng_next(self._state)
        return v

    def getrandbits(self, k: int) -> int:
        v = 0
        shift = 0
        while shift < k:
            v |= self.next_u64() << shift
            shift += 64
        return v & ((1 << k) - 1)

    def randrange(self, start: int, stop: int) -> int:
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range [{start}, {stop})")
        bits = width.bit_length()
        while True:
            v = self.getrandbits(bits)
            if v < width:
                return start + v

    def randrange_array(self, start: int, stop: int, count: int) -> np.ndarray:
        """The next count values of randrange(start, stop), leaving the state where those calls would.

        An attempt takes ceil(bits / 64) draws, low word first as in
        getrandbits, and all attempts come from the counter form at once
        (see _mix). Returns uint64 when every value in [start, stop) fits,
        else an object array of ints.
        """
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range [{start}, {stop})")
        bits = width.bit_length()
        words = -(-bits // 64)
        as_uint64 = words == 1 and 0 <= start and stop <= 1 << 64
        out = np.empty(count, dtype=np.uint64 if as_uint64 else object)
        got = 0
        while got < count:
            # Expected attempts plus a margin; a shortfall takes another pass.
            attempts = (count - got) * (1 << bits) // width + 16
            w = _mix(self._state, np.arange(1, attempts * words + 1, dtype=np.uint64))
            if words == 1:
                v = w & np.uint64((1 << bits) - 1)
            else:
                w = w.reshape(attempts, words).astype(object)
                v = sum(w[:, i] << 64 * i for i in range(words)) & ((1 << bits) - 1)
            accepted = np.flatnonzero(v < width)[: count - got]
            used = accepted[-1] + 1 if got + accepted.size == count else attempts
            self._state = (self._state + int(used) * words * _GOLDEN) & MASK64
            out[got : got + accepted.size] = v[accepted]
            got += accepted.size
        return out + (np.uint64(start) if as_uint64 else start)

    def peek_getrandbits(self, k: int, count: int) -> np.ndarray:
        """The values of the next count getrandbits(k) calls (k > 0), without advancing the state.

        Row i holds call i's ceil(k / 64) draws as uint64 words, low word
        first, the top word masked as getrandbits masks it. All of them come
        from the counter form at once (see _mix). skip_getrandbits(k, calls)
        then takes the first calls of them.
        """
        words = -(-k // 64)
        v = _mix(self._state, np.arange(1, count * words + 1, dtype=np.uint64)).reshape(count, words)
        v[:, -1] &= np.uint64(MASK64 >> (64 * words - k))
        return v

    def skip_getrandbits(self, k: int, calls: int) -> None:
        """Advance the state as calls getrandbits(k) calls would."""
        self._state = (self._state + calls * -(-k // 64) * _GOLDEN) & MASK64


def _mix(state: int, t: np.ndarray) -> np.ndarray:
    """SplitMix64 draws number t (t = 1, 2, ...) from state, for a uint64 array t.

    SplitMix64 is counter-based: draw t from state s is
    mix(s + t * golden mod 2^64), so any set of draws is one uint64 pass
    (array arithmetic wraps without warnings).
    """
    return _splitmix(np.uint64(state) + t * np.uint64(_GOLDEN))


def _splitmix(v: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix, in place on a uint64 array of advanced states."""
    v ^= v >> np.uint64(30)
    v *= np.uint64(_MIX1)
    v ^= v >> np.uint64(27)
    v *= np.uint64(_MIX2)
    v ^= v >> np.uint64(31)
    return v


def _swap_indexes(state: int, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unbiased draws v mod m[k] from the SplitMix64 stream at state, laid out by step.

    m[k] takes draw m.size - k (the last entry draws first, as Fisher-Yates
    step k + 1 = m[k] does), and v holds those draws in the same layout. A
    draw above MASK64 - (2^64 mod m) is rejected; since 2^64 mod m < m,
    every rejected draw is at least 2^64 - m + 1. So when no draw reaches
    2^64 - max(m) + 1, none is rejected and v mod m is exact: one scalar
    check instead of a threshold per element. Otherwise (probability below
    m.size * max(m) / 2^64) the exact loop runs in draw order: all draws
    come from the counter form (_mix), a rejected draw uses up its counter,
    and the steps after it are recomputed with counters shifted by one.
    """
    if not m.size or int(v.max()) <= MASK64 + 1 - int(m.max()):
        return v % m
    m = m[::-1]
    threshold = np.uint64(MASK64) - (0 - m) % m  # (2^64 - m) mod m == 2^64 mod m
    out = np.empty(m.size, dtype=np.uint64)
    start = skipped = 0
    while start < m.size:
        v = _mix(state, np.arange(start + skipped + 1, m.size + skipped + 1, dtype=np.uint64))
        rejected = np.flatnonzero(v > threshold[start:])
        stop = start + (rejected[0] if rejected.size else v.size)
        out[start:stop] = v[: stop - start] % m[start:stop]
        start = stop
        skipped += 1
    return out[::-1]


def _resolve_swaps(j: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The array [0, n) after swapping positions s and j[s] for s = n - 1 down to 1.

    j is int64 with 0 <= j[s] <= s. The swaps are resolved by pointer
    doubling rather than run in order. Let A(q) be what position q holds
    just before step q (for q = 0: at the end). Only steps s > q with
    j[s] = q write to q before then, and the last of them, the smallest s,
    leaves A(s) there; so A(q) = A(s), or q if there is no such s. Each
    chain q -> s rises, so value = value[value] resolves all of them in at
    most ceil(log2 n) rounds. Step s with j[s] < s leaves in position s what
    j[s] holds just before it: A of the next step of its group, or j[s] if
    it is the group's last. steps is np.arange(n) as int64.
    """
    moved = np.flatnonzero(j != steps)
    if not moved.size:
        return steps.copy()
    # Pack (j[s], s) as j[s] << bits | s, so one sort orders by group, then step.
    bits = j.size.bit_length()
    packed = j[moved]
    packed <<= bits
    packed |= moved
    packed.sort()
    group = packed >> bits
    step = packed
    step &= (1 << bits) - 1
    last = np.append(np.flatnonzero(group[1:] != group[:-1]), group.size - 1)
    first = np.append(0, last[:-1] + 1)
    value = steps.copy()
    value[group[first]] = step[first]
    while True:
        resolved = value[value]
        if np.array_equal(resolved, value):
            break
        value = resolved
    out = value.copy()
    out[step[:-1]] = value[step[1:]]
    out[step[last]] = group[last]
    return out


class DrawPlan:
    """What every keyed permutation of [0, n) shares, whatever its seed.

    Laid out by Fisher-Yates step s in [0, n): the modulus s + 1 and the
    counter offset (n - s) * golden, since step s takes draw n - s (step 0
    takes a draw past the stream's end, and any draw mod 1 is its j = 0),
    plus np.arange(n). FrameCoder builds one plan for its eight
    same-size permutations.
    """

    def __init__(self, n: int):
        self.steps = np.arange(n, dtype=np.int64)
        self.moduli = self.steps.astype(np.uint64) + np.uint64(1)
        self.offsets = np.arange(n, 0, -1, dtype=np.uint64) * np.uint64(_GOLDEN)

    def permutation(self, key: StegoKey, domain_tag: int) -> np.ndarray:
        """keyed_permutation(key, domain_tag, n)."""
        state = (key.seed ^ domain_tag) & MASK64
        v = _splitmix(self.offsets + np.uint64(state))
        j = _swap_indexes(state, self.moduli, v)
        return _resolve_swaps(j.view(np.int64), self.steps)


def keyed_permutation(key: StegoKey, domain_tag: int, n: int) -> np.ndarray:
    """Fisher-Yates shuffle of [0, n) seeded with key.seed XOR domain_tag, as int64 indexes.

    Step i (from n - 1 down to 1) swaps i with j = v mod (i + 1), where v is
    the next SplitMix64 draw below floor(2^64 / (i + 1)) * (i + 1); draws at
    or above that limit are discarded so j is unbiased. That sequential loop
    defines the result. DrawPlan computes the same array without it: all
    draws at once, checked against the scalar bound 2^64 - n + 1 that every
    rejected draw reaches (see _swap_indexes), then _resolve_swaps.
    """
    return DrawPlan(n).permutation(key, domain_tag)


def invert(perm: np.ndarray) -> np.ndarray:
    """Inverse bijection: invert(p)[p[i]] == i."""
    n = perm.size
    if n and (perm.min() < 0 or perm.max() >= n or (np.bincount(perm, minlength=n) != 1).any()):
        raise FormatError("corrupt permutation: not a bijection")
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n, dtype=np.int64)
    return inverse

