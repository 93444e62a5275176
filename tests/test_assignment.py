import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import assignment_cost, brute_force_lsap_cost, reduced_rank_costs

from pai import InputError, NumericError, dataio
from pai.assignment import rank_cost_matrix, solve_lsap
from pai.halton import halton_block
from pai.ranks import _target_potential


def lsap_cost(costs):
    return assignment_cost(costs, solve_lsap(costs))


def test_hand_examples():
    perm = solve_lsap(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(perm, [0, 1])

    assert lsap_cost(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0
    assert lsap_cost(np.array([[1.0, 2.0], [2.0, 1.0]])) == 2.0
    assert lsap_cost(np.array([[4.0, 1, 3], [2, 0, 5], [3, 2, 2]])) == 5.0


def test_empty_matrix():
    perm = solve_lsap(np.zeros((0, 0)))
    assert perm.shape == (0,)
    assert lsap_cost(np.zeros((0, 0))) == 0.0


def test_matches_brute_force(rng):
    for _ in range(120):
        n = int(rng.integers(1, 8))
        costs = rng.random((n, n)) * 10
        assert lsap_cost(costs) == pytest.approx(brute_force_lsap_cost(costs), abs=1e-9)


def test_perm_is_bijection(rng):
    for _ in range(50):
        n = int(rng.integers(1, 30))
        perm = solve_lsap(rng.random((n, n)))
        assert np.array_equal(np.sort(perm), np.arange(n))


def test_constant_shift_invariance(rng):
    n = 12
    costs = rng.random((n, n))
    base = solve_lsap(costs)
    shifted = lsap_cost(costs + 3.5)
    assert shifted == pytest.approx(assignment_cost(costs, base) + n * 3.5, rel=1e-12)
    # the unshifted optimum stays optimal after the shift
    assert assignment_cost(costs + 3.5, base) == pytest.approx(shifted, rel=1e-12)


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
    assert lsap_cost(np.array([[-0.0, 1.0], [1.0, -0.0]])) == 0.0


def test_rank_cost_matrix_examples():
    pts = np.array([[0.3, 0.7], [0.1, 0.2]])
    np.testing.assert_allclose(np.diag(rank_cost_matrix(pts, pts)), 0.0)

    got = rank_cost_matrix(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(got, [[0.0, 0.5], [0.5, 0.0]])

    got = rank_cost_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(got, [[2.0]])

    with pytest.raises(InputError):
        rank_cost_matrix(np.zeros((2, 1)), np.zeros((3, 1)))


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("n, blocks", [(300, 1), (400, 2), (1024, 8), (2000, 31)])
def test_the_blocked_sweep_keeps_the_bits_of_the_whole_matrix(rng, n, d, blocks):
    starts = dataio.chunk_starts(n, n)
    assert len(starts) == blocks
    if n == 2000:
        assert n % starts.step == 50  # a ragged last block
    points, targets = rng.standard_normal((n, d)), halton_block(n, d)
    # no potential: exactly cdist / n
    for potential in (None, _target_potential(n, d)):
        got, want = rank_cost_matrix(points, targets, potential), reduced_rank_costs(points, targets, potential)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_rank_costs_that_overflow_float64_are_a_numeric_error_before_the_matrix(rng):
    n = 2000
    points, targets = rng.standard_normal((n, 2)), halton_block(n, 2)
    points[7, 1] = 1e160
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericError,
                match=r"^the squared distances from sample row 7 \(\[.+, 1e\+160\]\) to the rank targets overflow float64$",
            ):
                rank_cost_matrix(points, targets, _target_potential(n, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 16
    # squares of 1e153 are finite, and so are their costs
    points[7, 1] = 1e153
    assert np.isfinite(rank_cost_matrix(points, targets)).all()


def test_an_error_in_a_worker_block_propagates_and_the_worker_ends(rng, monkeypatch):
    import scipy.spatial.distance

    cdist = scipy.spatial.distance.cdist

    def failing_cdist(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker cdist failed")
        return cdist(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial.distance, "cdist", failing_cdist)
    n = 400  # two blocks, the second on the worker
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker cdist failed"):
        rank_cost_matrix(rng.standard_normal((n, 2)), halton_block(n, 2), _target_potential(n, 2))
    assert threading.active_count() == before
