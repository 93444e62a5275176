import numpy as np
import pytest

from pai import InputError, derive_rng
from pai.streams import PATH_PASS, derive_rng_block, philox_keys

# Seeds of 1 to 5 uint32 words, and index blocks at the word boundaries:
# the last one crosses 2**32, where the spawn key gains a word.
SEEDS = (0, 2**31 - 1, 2**40 + 3, 2**100 + 7, 2**130 + 11)
BLOCKS = ((0, 3), (2**31 - 1, 2), (2**32 - 1, 1), (2**32 - 3, 6))


def _seed_sequence_keys(seed, tag, first, count):
    return np.array(
        [np.random.SeedSequence(seed, spawn_key=(tag, first + i)).generate_state(2, np.uint64) for i in range(count)]
    )


@pytest.mark.parametrize("seed", SEEDS)
# tag 2**33 + 1 is two words, so the prefix's hash constant advances further
@pytest.mark.parametrize("tag", (*range(5), 2**33 + 1))
def test_block_keys_are_the_seed_sequence_keys(seed, tag):
    for first, count in BLOCKS:
        keys = philox_keys(seed, tag, first, count)
        assert keys.dtype == np.uint64 and keys.shape == (count, 2)
        np.testing.assert_array_equal(keys, _seed_sequence_keys(seed, tag, first, count))


def test_block_keys_at_the_ends_of_the_index_range():
    np.testing.assert_array_equal(philox_keys(5, 0, 2**32, 2), _seed_sequence_keys(5, 0, 2**32, 2))
    np.testing.assert_array_equal(philox_keys(5, 0, 2**64 - 2, 2), _seed_sequence_keys(5, 0, 2**64 - 2, 2))
    assert philox_keys(5, 0, 9, 0).shape == (0, 2)
    with pytest.raises(InputError):
        philox_keys(5, 0, 2**64 - 1, 2)
    with pytest.raises(InputError):
        philox_keys(-1, 0, 0, 1)


def _consume(rng, how):
    # standard normals read whole 64-bit words; an odd count of 32-bit
    # integers leaves the cached half (has_uint32) set
    if how == "normal":
        return rng.standard_normal(7)
    return rng.integers(0, 2**32, size=3, dtype=np.uint32)


@pytest.mark.parametrize("seed", (0, 2**100 + 7))
def test_a_reset_generator_draws_what_derive_rng_draws(seed):
    first = 2**32 - 2
    pattern = ("uint32", "normal", "uint32", "uint32", "normal")
    streams = derive_rng_block(seed, PATH_PASS, first, len(pattern))
    for k, (rng, how) in enumerate(zip(streams, pattern)):
        reference = derive_rng(seed, PATH_PASS, first + k)
        for _ in range(2):
            assert _consume(rng, how).tobytes() == _consume(reference, how).tobytes()
        # the next stream starts clean whatever this one left behind
        assert rng.standard_normal(5).tobytes() == reference.standard_normal(5).tobytes()
        _consume(rng, "uint32")


def test_a_block_holds_count_streams():
    assert len(list(derive_rng_block(3, PATH_PASS, 7, 4))) == 4
    assert list(derive_rng_block(3, PATH_PASS, 7, 0)) == []
