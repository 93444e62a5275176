"""Deterministic derivation of random streams from one master seed.

Every stochastic routine in the package receives a ``numpy.random.Generator``
derived here. Substreams are addressed by an integer path fed into
``SeedSequence``'s spawn key on top of the counter-based Philox engine, so
replicate k of an experiment always sees the same stream regardless of how
many other replicates ran before it (or whether they ran at all). This is
what makes Monte Carlo loops safe to reorder or parallelize without changing
any output bit.

:func:`derive_rng` builds one stream through ``SeedSequence`` itself; it
serves the unindexed streams and is the reference for the others.
:func:`derive_rng_block` gives a contiguous block of replicate streams
``(tag, first)``, ..., ``(tag, first + count - 1)`` without building a
``SeedSequence`` per stream: :func:`philox_keys` takes the pool that
``SeedSequence(seed, spawn_key=(tag,))`` has mixed from the seed and tag
words, mixes each stream index into it in one pass of numpy uint32
arithmetic over the whole block, and one ``Philox`` is reset to each key in
turn. Every indexed draw of the package (synthesis replicates, Monte Carlo
null chunks, conditional draws) takes its streams from here. The tests check
every block key against ``SeedSequence(seed, spawn_key=(tag,
k)).generate_state(2, np.uint64)`` and every reset stream against
:func:`derive_rng`, draw for draw.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .dataio import argument, integer
from .errors import InputError

# Leading path tags: every consumer of randomness addresses its substreams
# under a distinct tag, so one master seed can drive a whole experiment
# without any two roles sharing a stream.
PATH_PASS = 0         # synthesis replicates: (PATH_PASS, replicate)
PATH_CONDITIONAL = 1  # conditional draws: (PATH_CONDITIONAL, point index)
PATH_SIMULATE = 2     # simulated datasets: (PATH_SIMULATE,)
PATH_SPLIT = 3        # data splits: (PATH_SPLIT,)
PATH_TRUTH = 4        # oracle truth draws: (PATH_TRUTH, point index)

# SeedSequence's pool size and hash constants (numpy.random.bit_generator,
# after O'Neill's seed_seq_fe); philox_keys repeats its mix of the index
# words with them.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for substream ``path`` under ``master_seed``.

    Parameters
    ----------
    master_seed : int
        Non-negative experiment-level seed.
    *path : int
        Optional substream coordinates, e.g. a replicate index. Distinct
        paths yield statistically independent streams; equal paths yield
        bit-identical streams.
    """
    master_seed = argument(master_seed, "master seed", integer)
    key = tuple(argument(p, "stream path component", integer) for p in path)
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _hash_constants(hash_const: int, mult: int) -> list[int]:
    """The hash constant and its next four values."""
    consts = [hash_const]
    for _ in range(_POOL_SIZE):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _lane_hash(value, consts: list[int]) -> np.ndarray:
    """Four hashes of ``value`` in a row, one per pool word, as one ``(4, ...)`` array op."""
    value = (value ^ np.array(consts[:-1], dtype=np.uint32)[:, None]) * np.array(consts[1:], dtype=np.uint32)[:, None]
    return value ^ value >> np.uint32(_XSHIFT)


def _mix_word(pool: np.ndarray, hash_const: int, word) -> tuple[np.ndarray, int]:
    """Mix an entropy word past the pool's own into each of the four pool words.

    ``pool`` is a ``(4, block)`` uint32 array and ``word`` a uint32 array over
    the block (or an int). The four pool words do not interact in this step,
    so SeedSequence's inner loop runs as array ops over all four at once.
    """
    consts = _hash_constants(hash_const, _MULT_A)
    pool = pool * np.uint32(_MIX_MULT_L) - _lane_hash(word, consts) * np.uint32(_MIX_MULT_R)
    return pool ^ pool >> np.uint32(_XSHIFT), consts[-1]


def _word_count(value: int) -> int:
    """How many uint32 words SeedSequence splits a non-negative int into."""
    return max(1, -(-value.bit_length() // 32))


@functools.lru_cache(maxsize=16)
def _prefix_pool(master_seed: int, tag: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``(4, 1)`` pool, and its hash constant, after the seed's and the tag's words.

    The pool is that of ``SeedSequence(master_seed, spawn_key=(tag,))``.
    SeedSequence pads the seed's words to the pool size when a spawn key
    follows, so the stream index always comes after these words; each of
    those words (the padded seed's, then the tag's) advances the hash
    constant four times. The pool is read-only.
    """
    pool = np.random.SeedSequence(master_seed, spawn_key=(tag,)).pool[:, None]
    pool.setflags(write=False)
    words = max(_POOL_SIZE, _word_count(master_seed)) + _word_count(tag)
    return pool, _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 2**32) & _MASK32


def _generate_keys(pool: np.ndarray) -> np.ndarray:
    """``generate_state(2, np.uint64)`` of each pool column, shape ``(block, 2)``."""
    words = _lane_hash(pool, _hash_constants(_INIT_B, _MULT_B))
    # SeedSequence reads its uint32 words as little-endian uint64 pairs.
    return np.ascontiguousarray(words.T).astype("<u4").view("<u8").astype(np.uint64)


def philox_keys(master_seed: int, tag: int, first: int, count: int) -> np.ndarray:
    """Philox keys of streams ``(tag, first)``, ..., ``(tag, first + count - 1)``.

    Row ``i`` of the ``(count, 2)`` uint64 result equals
    ``SeedSequence(master_seed, spawn_key=(tag, first + i)).generate_state(2,
    np.uint64)``, the key :func:`derive_rng` gives its ``Philox``. The words
    of the seed and the tag are the same for the whole block; only the index
    words vary, and they are mixed in as uint32 arrays. An index below
    ``2**32`` is one word and a larger one two, so a block that crosses
    ``2**32`` is mixed in two parts. Indices must lie below ``2**64``.
    """
    if master_seed < 0 or tag < 0 or first < 0 or count < 0:
        raise InputError("master seed and stream path components must be non-negative")
    if first + count > 2**64:
        raise InputError("block stream indices must lie below 2**64")
    prefix, prefix_const = _prefix_pool(int(master_seed), int(tag))
    keys = np.empty((count, 2), dtype=np.uint64)
    split = min(max(first, 2**32), first + count)
    for lo, hi in ((first, split), (split, first + count)):
        if lo == hi:
            continue
        index = np.arange(hi - lo, dtype=np.uint64) + np.uint64(lo)
        pool, hash_const = _mix_word(prefix, prefix_const, (index & np.uint64(_MASK32)).astype(np.uint32))
        if lo >= 2**32:
            pool, hash_const = _mix_word(pool, hash_const, (index >> np.uint64(32)).astype(np.uint32))
        keys[lo - first : hi - first] = _generate_keys(pool)
    return keys


def derive_rng_block(master_seed: int, tag: int, first: int, count: int) -> Iterator[np.random.Generator]:
    """The generators of streams ``(tag, first)``, ..., ``(tag, first + count - 1)``, in order.

    Each yielded generator draws exactly what ``derive_rng(master_seed, tag,
    first + i)`` draws. It is one generator whose ``Philox`` is reset to the
    next key (:func:`philox_keys`) with counter 0, an empty buffer and no
    cached 32-bit half, so each stream must be consumed before the next one is
    taken.
    """
    # The state setter reads each word by index, from a list of Python ints
    # about twice as fast as from a numpy array.
    keys = philox_keys(master_seed, tag, first, count).tolist()
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys:
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng
