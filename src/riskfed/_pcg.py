"""First uniform draw of ``np.random.default_rng(words + [key])`` for many keys.

``default_rng(entropy)`` hashes the entropy words with ``SeedSequence``
into a PCG64 state and increment, and ``random()`` returns the top 53
bits of PCG64's first output. This module runs the same arithmetic on
whole arrays of keys: uint32 wrapping products for the hash, and 128-bit
state arithmetic on pairs of uint64 words. The results equal numpy's
bit for bit, so a per-key stream can be drawn for thousands of keys in
one pass instead of one ``Generator`` per key.
"""

from __future__ import annotations

import numpy as np

# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# PCG64 default 128-bit multiplier, high and low words
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


def _words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a nonnegative int."""
    if value < 0:
        raise ValueError(f"entropy words must be nonnegative, got {value}")
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


class _Hash:
    """SeedSequence's hash with its running constant: hashmix with
    (_INIT_A, _MULT_A), generate_state's output hash with (_INIT_B, _MULT_B)."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy on columns of uint32 words."""
    n = entropy[0].shape
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    return pool


def _state_words(pool: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.generate_state(4, np.uint64) as four uint64 columns."""
    out_hash = _Hash(_INIT_B, _MULT_B)
    words = [out_hash(pool[i % _POOL_SIZE]) for i in range(8)]
    return [words[2 * i].astype(np.uint64)
            | (words[2 * i + 1].astype(np.uint64) << np.uint64(32))
            for i in range(4)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 a and constant b."""
    lo32 = np.uint64(_MASK32)
    a_lo, a_hi = a & lo32, a >> np.uint64(32)
    b_lo, b_hi = np.uint64(b & _MASK32), np.uint64(b >> 32)
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    lo_hi = a_lo * b_hi
    cross = (lo_lo >> np.uint64(32)) + (hi_lo & lo32) + lo_hi
    return a_hi * b_hi + (hi_lo >> np.uint64(32)) + (cross >> np.uint64(32))


def _step(state, inc):
    """One PCG64 LCG step: state * MULT + inc (mod 2**128)."""
    hi, lo = state
    m_hi, m_lo = _PCG_MULT
    prod_lo = lo * np.uint64(m_lo)
    prod_hi = _mulhi64(lo, m_lo) + lo * np.uint64(m_hi) + hi * np.uint64(m_lo)
    new_lo = prod_lo + inc[1]
    carry = (new_lo < prod_lo).astype(np.uint64)
    return prod_hi + inc[0] + carry, new_lo


def first_uniforms(words: list[int], keys) -> np.ndarray:
    """``np.random.default_rng([*words, key]).random()`` for every key.

    ``words`` are the nonnegative ints shared by all keys; each key must
    lie in [0, 2**32), so it is one SeedSequence word.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("keys must lie in [0, 2**32)")
    shared = [w for value in words for w in _words(int(value))]
    entropy = [np.full(keys.shape, w, dtype=np.uint32) for w in shared]
    entropy.append(keys.astype(np.uint32))
    with np.errstate(over="ignore"):
        seed_hi, seed_lo, inc_hi, inc_lo = _state_words(_pool(entropy))
        # pcg_setseq_128_srandom_r: inc = 2*initseq + 1, state = 0
        inc = ((inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63)),
               (inc_lo << np.uint64(1)) | np.uint64(1))
        state = _step((np.zeros_like(inc[0]), np.zeros_like(inc[1])), inc)
        lo = state[1] + seed_lo
        hi = state[0] + seed_hi + (lo < seed_lo).astype(np.uint64)
        state = _step(_step((hi, lo), inc), inc)
    # XSL-RR output, then the top 53 bits as a double in [0, 1)
    hi, lo = state
    xored = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
