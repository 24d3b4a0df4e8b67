"""Deterministic counter-based random streams (SplitMix64).

Every value is a pure function of (key, counter), where the key is derived
by folding a 64-bit seed with an arbitrary tuple of stream ids (ints or
strings).  This gives reproducible, order-independent substreams: trial k
of role "bob" always sees the same numbers regardless of what other
streams were consumed, and the same draws can be evaluated one at a time
or as whole numpy arrays (see :func:`bulk_uniforms`).

The array kernels work in place on a private copy: each copies its
input words once, mixes that copy with `^=`, `*=` and shifts against one
scratch array, and returns it, so an input array is never modified
unless it is also given as `out=`.  They apply the scalar mixer's
operations in the scalar mixer's order, word by word.  A caller that
makes many calls of one length passes its own buffers: the result goes
into `out=` and the mixing uses `scratch=`, so the call allocates
nothing.

`bulk_uniforms` gives each draw as its 53-bit numerator m = word >> 11,
a fixed-point uniform: the draw u is m * 2**-53 exactly, and no float is
built.  A caller scales it with `numerator_index`, or compares it with
integer thresholds (an entry p has u >= p exactly when
m >= ceil(p * 2**53)).  `block_uniforms` turns the same numerators into
floats.  The keys of a run's trials share their role-independent half,
`trial_words`, which `trial_keys` finishes once per role.

Determinism holds across platforms for this implementation; bit-exact
agreement with other generators is not a goal.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INT_TAG = 0xD6E8FEB86659FD93
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# 2^-53: top 53 bits of a 64-bit word map to [0, 1)
_U53 = 1.0 / 9007199254740992.0

# the array kernels' uint64 operands, built once
_NP_30, _NP_27, _NP_31 = np.uint64(30), np.uint64(27), np.uint64(31)
_NP_MUL1, _NP_MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_NP_TOP53 = np.uint64(11)
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_INT_TAG = np.uint64(_INT_TAG)


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit avalanche mix."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _id_word(stream_id) -> int:
    """Map a stream id (int or str) to a 64-bit word."""
    if isinstance(stream_id, bool):
        raise TypeError("stream ids must be int or str, not bool")
    if isinstance(stream_id, int):
        return _mix64((stream_id & _MASK64) ^ _INT_TAG)
    if isinstance(stream_id, str):
        h = _FNV_OFFSET
        for b in stream_id.encode("utf-8"):
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
        return h
    raise TypeError(f"stream ids must be int or str, got {type(stream_id).__name__}")


def stream_key(seed: int, *ids) -> int:
    """Derive the 64-bit key of the substream (seed, *ids)."""
    key = _mix64(seed & _MASK64)
    for stream_id in ids:
        key = _mix64(key ^ _id_word(stream_id))
    return key


def value_at(key: int, counter: int) -> int:
    """The raw 64-bit word of stream `key` at position `counter`."""
    return _mix64((key + ((counter + 1) * _GOLDEN)) & _MASK64)


def trial_words(trial_ids: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """The role-independent half of stream_key(seed, role, t) for an array
    of trial ids: the id words _id_word(t), written into the uint64 array
    `out` when given, which may be trial_ids itself."""
    words = np.bitwise_xor(trial_ids, _NP_INT_TAG, out=out, dtype=np.uint64, casting="unsafe")
    return _mix64_in_place(words, scratch)


def trial_keys(seed: int, role: str, words: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Vectorized stream_key(seed, role, t) from the trial_words of an
    array of trial ids, written into the uint64 array `out` when given."""
    keys = np.bitwise_xor(words, np.uint64(stream_key(seed, role)), out=out)
    return _mix64_in_place(keys, scratch)


def _mix64_in_place(z: np.ndarray, scratch=None) -> np.ndarray:
    """_mix64 on every word of the uint64 array z, in place, through one
    scratch array of z's shape (made here when none is given); returns z."""
    scratch = np.right_shift(z, _NP_30, out=scratch)
    z ^= scratch
    z *= _NP_MUL1
    np.right_shift(z, _NP_27, out=scratch)
    z ^= scratch
    z *= _NP_MUL2
    np.right_shift(z, _NP_31, out=scratch)
    z ^= scratch
    return z


def _numerators_in_place(words: np.ndarray, scratch=None) -> np.ndarray:
    """The 53-bit numerators of private raw uint64 words, which it
    overwrites and returns."""
    _mix64_in_place(words, scratch)
    words >>= _NP_TOP53
    return words


def bulk_uniforms(keys: np.ndarray, counter: int, out=None, scratch=None) -> np.ndarray:
    """Uniform draws at position `counter` of many streams at once, as
    uint64 numerators m of the fixed-point uniforms m * 2**-53, written
    into the uint64 array `out` when given.

    m * 2**-53 is bit-identical to RandomStream(key).skip(counter).uniform()
    per key.
    """
    step = np.uint64((counter + 1) * _GOLDEN & _MASK64)
    return _numerators_in_place(np.add(keys, step, out=out), scratch)


def block_uniforms(seed: int, role: str, start: int, count: int, width: int) -> np.ndarray:
    """The first `width` uniforms of the substreams (seed, role, t) for t in
    start..start+count-1, as a (count, width) array.

    Row i, column j is bit-identical to the j-th uniform() of
    RandomStream(seed, role, start + i).  Trial ids wrap modulo 2^64, as
    stream ids do.
    """
    trials = np.arange(count, dtype=np.uint64)
    trials += np.uint64(start & _MASK64)
    steps = np.arange(1, width + 1, dtype=np.uint64)
    steps *= _NP_GOLDEN
    words = trial_keys(seed, role, trial_words(trials))[:, None] + steps
    # below 2**53 the int64 view holds the same values, and converts faster
    return _numerators_in_place(words).view(np.int64) * _U53


def scaled_index(u, n: int):
    """Map uniform u in [0,1) to an integer in 0..n-1 (shared scalar/array
    path).  An array u gives int64s."""
    if isinstance(u, np.ndarray):
        return np.minimum((u * n).astype(np.int64), n - 1)
    return min(int(u * n), n - 1)


def numerator_index(m: np.ndarray, n: int, out: np.ndarray, scratch=None) -> np.ndarray:
    """scaled_index of the uniforms m * 2**-53 of the numerators m, into
    the integer array `out`.  m and n * 2**-53 are exact floats, so
    m * (n * 2**-53) rounds the real product u * n once, as scaled_index
    does, and the cast truncates as int() does.  For u < 1, u * n lies at
    least n * 2**-53 below n, more than half the float spacing there, so
    it rounds to a float below n and needs no cap.

    The products go through `scratch`, an 8-byte vector of m's shape (made
    here when None) viewed as float64: each cast is one `np.copyto`, where
    a ufunc mixing the types would cast through buffers it allocates."""
    real = np.empty(m.shape) if scratch is None else scratch.view(np.float64)
    # below 2**53 the int64 view holds the same values, and converts faster
    np.copyto(real, m.view(np.int64))
    real *= n * _U53
    np.copyto(out, real, casting="unsafe")
    return out


class RandomStream:
    """One sequentially-consumed random stream: the substream (seed, *ids).

    Instances are single-owner: parallel consumers each construct their
    own stream from their own ids.
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, *ids):
        self.key = stream_key(seed, *ids)
        self.counter = 0

    def skip(self, n: int) -> None:
        """Advance the counter without producing values."""
        self.counter += n

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        word = value_at(self.key, self.counter)
        self.counter += 1
        return (word >> 11) * _U53

    def randint(self, n: int) -> int:
        """Next integer uniform on 0..n-1."""
        if n < 1:
            raise ValueError("n must be positive")
        return scaled_index(self.uniform(), n)
