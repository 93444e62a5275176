import numpy as np
import pytest
from oracles import halton_point

from pai import InputError
from pai.halton import MAX_DIM, halton_block


def test_radical_inverse_hand_values():
    assert halton_point(1, 2) == 0.5
    assert halton_point(3, 2) == 0.75
    assert halton_point(1, 3) == pytest.approx(1.0 / 3.0)
    assert halton_point(2, 2) == 0.25


def test_block_hand_values():
    block = halton_block(2, 2)
    assert block[0] == pytest.approx([0.5, 1.0 / 3.0])
    assert block[1] == pytest.approx([0.25, 2.0 / 3.0])
    assert halton_block(1, 1)[0, 0] == 0.5
    np.testing.assert_allclose(halton_block(3, 1)[:, 0], [0.5, 0.25, 0.75])


def test_points_in_open_cube():
    block = halton_block(500, 6)
    assert block.min() > 0.0
    assert block.max() < 1.0


def test_rows_distinct_at_scale():
    block = halton_block(100_000, 2)
    assert np.unique(block, axis=0).shape[0] == block.shape[0]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_equidistribution(d):
    block = halton_block(4096, d)
    np.testing.assert_allclose(block.mean(axis=0), 0.5, atol=0.02)
    if d > 1:
        cov = np.cov(block, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 0.02


def test_determinism():
    a = halton_block(257, 4)
    b = halton_block(257, 4)
    assert np.array_equal(a, b)


def test_errors():
    with pytest.raises(InputError):
        halton_point(0, 2)
    with pytest.raises(InputError):
        halton_point(1, 4)  # not prime
    with pytest.raises(InputError):
        halton_block(10, 21)
    with pytest.raises(InputError):
        halton_block(0, 1)


def test_sequence_offset():
    # row i holds index i + 1: rows 2, 3 are indices 3, 4 in base 2
    np.testing.assert_array_equal(halton_block(4, 1)[2:, 0], [0.75, 0.125])


def test_block_is_bit_identical_to_the_scalar_radical_inverse():
    n = 5000
    block = halton_block(n, MAX_DIM)
    primes = [b for b in range(2, 72) if all(b % k for k in range(2, b))]
    expected = np.array([[halton_point(i + 1, b) for b in primes] for i in range(n)])
    np.testing.assert_array_equal(block, expected)
