"""``numpy.random.default_rng(seed).uniform`` without ``numpy.random``.

``uniform(seed, low, high, size)`` returns the same doubles, bit for
bit, as ``numpy.random.default_rng(seed).uniform(low, high, size)`` for
a non-negative int ``seed``: the seed goes through ``SeedSequence``'s
hash (a pool of four 32-bit words), the pool seeds a PCG64 stream
(128-bit LCG, XSL-RR output), and each 64-bit output x gives the double
(x >> 11) * 2^-53.  Importing ``numpy.random`` loads ``secrets``,
``hashlib`` and OpenSSL; this module needs numpy's arrays only.

The stream runs on numpy uint64 (high, low) pairs, ``_BLOCK`` states at
a time: the first block by doubling the jump x -> a*x + c, then block to
block by the jump of ``_BLOCK`` steps.  64x64-bit products are split
into 32-bit halves.
"""

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_BLOCK = 1 << 14

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_words(seed):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as 4 ints."""
    entropy = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = _INIT_B, []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[i] | words[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


def _mul_add(hi, lo, a, c):
    """(hi, lo) * a + c mod 2^128, elementwise, for ints ``a`` and ``c``."""
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _MASK64)
    x1, x0 = lo >> 32, lo & _MASK32
    y1, y0 = a_lo >> np.uint64(32), a_lo & np.uint64(_MASK32)
    cross0, cross1 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    hi = hi * a_lo + lo * a_hi + x1 * y1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    lo = lo * a_lo + np.uint64(c & _MASK64)
    hi += np.uint64(c >> 64) + (lo < np.uint64(c & _MASK64))
    return hi, lo


def _doubles(hi, lo):
    """XSL-RR output of each 128-bit state, as a double in [0, 1)."""
    x = hi ^ lo
    rot = hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11).astype(np.float64) * 2.0**-53


def uniform(seed, low, high, size):
    """``numpy.random.default_rng(seed).uniform(low, high, size)``, bit
    for bit: element i of the C-ordered output is low + (high - low) * u_i
    for the i-th double u_i of the stream, ``low`` and ``high`` broadcast
    against ``size``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    w = _seed_words(seed)
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    # PCG's seeding from state 0: step (to inc) and add the initial state;
    # two more steps give the state of the first output
    state = inc + (w[0] << 64 | w[1])
    for _ in range(2):
        state = (state * _MULTIPLIER + inc) & _MASK128

    out = np.empty(size, dtype=np.float64)
    flat = out.reshape(-1)
    n = flat.size
    # states 1..m of the stream and the jump (a, c) of m steps
    hi = np.array([state >> 64], dtype=np.uint64)
    lo = np.array([state & _MASK64], dtype=np.uint64)
    a, c = _MULTIPLIER, inc
    while hi.size < min(n, _BLOCK):
        new_hi, new_lo = _mul_add(hi, lo, a, c)
        hi, lo = np.concatenate([hi, new_hi]), np.concatenate([lo, new_lo])
        a, c = (a * a) & _MASK128, (a * c + c) & _MASK128
    for start in range(0, n, _BLOCK):
        if start:
            hi, lo = _mul_add(hi, lo, a, c)
        stop = min(start + _BLOCK, n)
        flat[start:stop] = _doubles(hi[: stop - start], lo[: stop - start])
    low = np.asarray(low, dtype=np.float64)
    out *= np.asarray(high, dtype=np.float64) - low
    out += low
    return out
