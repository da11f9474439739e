"""Deterministic counter-based random number generator (splitmix64).

The platform generators are deliberately avoided: the whole test suite
and the reproducibility guarantees hang off this stream being identical
on every machine. splitmix64 is counter-based — after n draws the state
is ``seed + n*GOLDEN mod 2^64`` — so bulk draws vectorize exactly: the
numpy uint64 path and the scalar python-int path produce the same bits.
Any block of the stream can be computed on its own, so bulk draws are
made ``_DRAW_BLOCK`` counters at a time, mixed in place in their own part
of the output with one reusable scratch array. A bulk draw of two or more split
blocks is dealt across threads by :func:`~fflab.numerics._split`, each
share starting at its own counter: the same bits and end state on any
number of threads.
"""

import numpy as np

from .numerics import _split

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_GOLDEN_U64 = np.uint64(GOLDEN)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)
_INV53 = 2.0 ** -53

# Draws per block of a bulk draw: its part of the output, its uint64
# scratch array and the counter steps (256 KiB each) stay in a 2 MiB
# per-core L2.
_DRAW_BLOCK = 1 << 15
# GOLDEN * (1, 2, ...): draw i of a block sits at its base state + _STEPS[i]
_STEPS = np.arange(1, _DRAW_BLOCK + 1, dtype=np.uint64) * _GOLDEN_U64
_STEPS.flags.writeable = False


def mix64(state):
    """splitmix64 output function for a raw 64-bit counter value."""
    z = state & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed, stream):
    """Decorrelated child seed for an independent stream (head, baseline, ...)."""
    return mix64((seed ^ ((stream + 1) * _MIX1)) & MASK64)


def _mix_array(z, t):
    """:func:`mix64` of every counter in uint64 array ``z``, in place;
    ``t`` is scratch of the same shape."""
    np.right_shift(z, _U64_30, out=t)
    z ^= t
    z *= _MIX1_U64
    np.right_shift(z, _U64_27, out=t)
    z ^= t
    z *= _MIX2_U64
    np.right_shift(z, _U64_31, out=t)
    z ^= t
    return z


def _draw_rows(lo, hi, out, state, fill, *args):
    """Draws lo+1..hi of the stream at ``state`` into ``out[lo:hi]``, whose
    items are 8 bytes, ``_DRAW_BLOCK`` at a time: each block's counters are
    mixed in its own part of ``out``, seen as uint64 z, with one scratch
    array t, and ``fill(part, z, t, *args)``, if given, turns z into
    ``part``'s values by way of t."""
    t = np.empty(min(hi - lo, _DRAW_BLOCK), dtype=np.uint64)
    for off in range(lo, hi, _DRAW_BLOCK):
        part = out[off : min(off + _DRAW_BLOCK, hi)]
        z, s = part.view(np.uint64), t[: len(part)]
        np.add(_STEPS[: len(z)], np.uint64((state + off * GOLDEN) & MASK64), out=z)
        _mix_array(z, s)
        if fill is not None:
            fill(part, z, s, *args)


def _uniform_fill(part, z, t, offset, scale):
    # below 2^53, so exact as int64 and as float64; int64 converts faster than uint64
    k = np.right_shift(z, _U64_11, out=t).view(np.int64)
    if offset:
        k -= offset
    np.multiply(k, scale, out=part)


def _remainder_fill(part, z, t, k):
    part[...] = np.remainder(z, k, out=t).view(np.int64)


class Rng:
    """Single-owner deterministic stream. Same seed, same bits, any platform."""

    def __init__(self, seed):
        self._state = int(seed) & MASK64

    @property
    def state(self):
        return self._state

    def next_u64(self):
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def uniform(self):
        """One draw in [0, 1) with 53 bits of resolution."""
        return (self.next_u64() >> 11) * _INV53

    def randint(self, n):
        """One draw in {0, ..., n-1}."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return self.next_u64() % n

    def randint_array(self, n, k):
        """n draws in {0, ..., k-1}: the values and end state of n
        :meth:`randint` calls."""
        if k <= 0:
            raise ValueError("randint_array needs k >= 1")
        return self._draws(np.empty(n, dtype=np.int64), _remainder_fill, np.uint64(k))

    def _draws(self, out, fill, *args):
        """The next len(out) draws written into ``out`` by ``fill`` (see
        :func:`_draw_rows`), in shares that :func:`~fflab.numerics._split`
        deals across threads: the stream is counter-based, so a share
        starts at its own draw. Advances the state past all of them at
        once; returns ``out``."""
        state = self._state
        self._state = (state + len(out) * GOLDEN) & MASK64
        _split(_draw_rows, out, state, fill, *args)
        return out

    def _u64_array(self, n):
        return self._draws(np.empty(n, dtype=np.uint64), None)

    def uniform_array(self, n, bound=None):
        """n draws u in [0, 1); consumes exactly n scalar draws. Given
        ``bound``, the bits of ``(u * 2.0 - 1.0) * bound`` in one pass: with
        k = u * 2^53 that is (k - 2^52) * (bound * 2^-52), two exact factors."""
        if bound is None:
            offset, scale = 0, _INV53
        else:
            offset, scale = 1 << 52, bound * 2.0 ** -52
        return self._draws(np.empty(n, dtype=np.float64), _uniform_fill, offset, scale)

    def normal_array(self, n):
        """n standard-normal draws via Box-Muller; consumes 2*ceil(n/2) draws."""
        half = (n + 1) // 2
        if half == 0:
            return np.empty(0, dtype=np.float64)
        # u1 in (0, 1] so log() is safe
        raw = self._u64_array(2 * half)
        u1 = ((raw[:half] >> _U64_11).astype(np.float64) + 1.0) * _INV53
        u2 = (raw[half:] >> _U64_11).astype(np.float64) * _INV53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def shuffle(self, seq):
        """In-place Fisher-Yates shuffle of a list or 1-D array; returns seq."""
        n = len(seq)
        if n < 2:
            return seq
        draws = self._u64_array(n - 1)
        bases = np.arange(n, 1, -1, dtype=np.uint64)
        js = draws % bases
        for i in range(n - 1):
            a = n - 1 - i
            b = int(js[i])
            seq[a], seq[b] = seq[b], seq[a]
        return seq
