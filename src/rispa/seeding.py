"""numpy's ``SeedSequence`` hash, computed for many entropies at once.

``seed_states(prefix, last, n)`` equals
``np.random.SeedSequence([*prefix, v]).generate_state(n, np.uint64)`` for every
``v`` in ``last``, bit for bit. It runs the same uint32 arithmetic (pool
hashing, the extra mixing of entropy longer than the 4-word pool, the output
hash) on one column per entropy word, so a batch of 10,000 records costs a few
dozen array operations instead of 10,000 ``SeedSequence`` objects.
``default_rngs(seeds)`` builds on it: the generators of ``default_rng(s)`` for
a whole batch of seeds.
"""

from __future__ import annotations

import numpy as np

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(values):
    """Little-endian uint32 words of non-negative integers, as ``SeedSequence`` splits them.

    Returns one column per word position and each value's word count (0 has one word).
    """
    x = np.asarray(values)
    if x.dtype.kind not in "iuO" or x.ndim != 1:
        raise ValueError("seed entropy must be a 1-D array of integers")
    if np.any(x < 0):
        raise ValueError("seed entropy must be non-negative")
    columns, length = [], np.ones(len(x), dtype=np.intp)
    while True:
        columns.append((x & _MASK32).astype(np.uint32))
        x = x >> 32
        alive = x > 0
        if not alive.any():
            return columns, length
        length += alive


def _hasher(const: int, mult: int):
    """``SeedSequence``'s multiply-xorshift hash, with its multiplier advancing per call."""
    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return step


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> 16)


def seed_states(prefix, last, n_words: int) -> np.ndarray:
    """(len(last), n_words) uint64: ``SeedSequence([*prefix, v]).generate_state(n_words, uint64)``."""
    head = [w for p in prefix for w in _words([int(p)])[0]]
    tail, tail_len = _words(last)
    entropy = [np.broadcast_to(w, tail[0].shape) for w in head] + tail
    length = len(head) + tail_len
    hashmix = _hasher(_INIT_A, _MULT_A)
    # entropy shorter than the pool hashes like zero padding
    zero = np.zeros_like(tail[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # words past the pool mix into every pool word, in rows whose entropy is that long
    for src in range(_POOL_SIZE, len(entropy)):
        present = length > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(present, _mix(pool[dst], hashmix(entropy[src])), pool[dst])
    output = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output(pool[i % _POOL_SIZE]) for i in range(2 * n_words)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def default_rngs(seeds):
    """Yield a generator equal to ``np.random.default_rng(s)`` for each integer ``s`` in ``seeds``.

    Every PCG64 state is hashed up front in one ``seed_states`` pass; each
    generator is then seeded from its precomputed state, not from its own
    ``SeedSequence``.
    """
    # numpy.random is loaded lazily; importing it with rispa would slow every CLI start
    from numpy.random.bit_generator import ISeedSequence

    class Preset(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    for state in seed_states([], seeds, 4):
        yield np.random.Generator(np.random.PCG64(Preset(state)))
