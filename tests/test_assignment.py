import numpy as np
import pytest
from oracles import brute_force_lsap_cost

from pai import InputError, rank_cost_matrix, solve_lsap


def test_hand_examples():
    a = solve_lsap(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert a.total_cost == 0.0
    np.testing.assert_array_equal(a.perm, [0, 1])

    assert solve_lsap(np.array([[1.0, 2.0], [2.0, 1.0]])).total_cost == 2.0
    assert solve_lsap(np.array([[4.0, 1, 3], [2, 0, 5], [3, 2, 2]])).total_cost == 5.0


def test_empty_matrix():
    a = solve_lsap(np.zeros((0, 0)))
    assert a.total_cost == 0.0
    assert a.perm.shape == (0,)


def test_matches_brute_force(rng):
    for _ in range(120):
        n = int(rng.integers(1, 8))
        costs = rng.random((n, n)) * 10
        got = solve_lsap(costs)
        assert got.total_cost == pytest.approx(brute_force_lsap_cost(costs), abs=1e-9)


def test_perm_is_bijection(rng):
    for _ in range(50):
        n = int(rng.integers(1, 30))
        a = solve_lsap(rng.random((n, n)))
        assert np.array_equal(np.sort(a.perm), np.arange(n))


def test_constant_shift_invariance(rng):
    n = 12
    costs = rng.random((n, n))
    base = solve_lsap(costs)
    shifted = solve_lsap(costs + 3.5)
    assert shifted.total_cost == pytest.approx(base.total_cost + n * 3.5, rel=1e-12)
    # the unshifted optimum stays optimal after the shift
    re_evaluated = (costs + 3.5)[base.perm, np.arange(n)].sum()
    assert re_evaluated == pytest.approx(shifted.total_cost, rel=1e-12)


def test_input_errors():
    non_finite, negative = "NaN or infinite", "non-negative"
    for bad, message in ((np.nan, non_finite), (np.inf, non_finite), (-np.inf, non_finite), (-1.0, negative)):
        with pytest.raises(InputError, match=message):
            solve_lsap(np.array([[bad, 1.0], [1.0, 0.0]]))
    # a non-finite entry is reported before a negative one, wherever each sits
    for costs in ([[np.nan, 1.0], [-1.0, 0.0]], [[-1.0, 1.0], [1.0, np.nan]], [[-1.0, np.inf], [1.0, 0.0]]):
        with pytest.raises(InputError, match=non_finite):
            solve_lsap(np.array(costs))
    with pytest.raises(InputError):
        solve_lsap(np.zeros((2, 3)))
    # -0.0 is not negative
    assert solve_lsap(np.array([[-0.0, 1.0], [1.0, -0.0]])).total_cost == 0.0


def test_rank_cost_matrix_examples():
    pts = np.array([[0.3, 0.7], [0.1, 0.2]])
    np.testing.assert_allclose(np.diag(rank_cost_matrix(pts, pts)), 0.0)

    got = rank_cost_matrix(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(got, [[0.0, 0.5], [0.5, 0.0]])

    got = rank_cost_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(got, [[2.0]])

    with pytest.raises(InputError):
        rank_cost_matrix(np.zeros((2, 1)), np.zeros((3, 1)))
