import tracemalloc

import numpy as np
import pytest
from oracles import assignment_cost, brute_force_lsap_cost, rank_discrepancy, row_ranks

import pai.ranks
from pai import InputError
from pai.assignment import HARD_SIZE_LIMIT, rank_cost_matrix, solve_lsap
from pai.halton import halton_block
from pai.ranks import empirical_ranks, match_ranks


def lsap_rank_map(sample):
    """The rank map solved as a plain LSAP, bypassing the sort path and the cache."""
    n, d = sample.shape
    return solve_lsap(rank_cost_matrix(sample, halton_block(n, d)))


def matched_cost(sample, perm):
    """Total rank cost of ``perm``."""
    n, d = sample.shape
    return assignment_cost(rank_cost_matrix(sample, halton_block(n, d)), perm)


def fresh_rank_map(sample):
    """The rank map ``empirical_ranks`` solves for ``sample``, never a cached one."""
    pai.ranks._solve_rank_map.cache_clear()
    return empirical_ranks(sample)


def distinct_lattice(rng, n, d):
    """``n`` distinct rows of the centred integer lattice of side ``g``, ``g**d >= 4 * n``."""
    g = 2
    while g**d < 4 * n:
        g += 1
    cells = rng.choice(g**d, size=n, replace=False)
    return np.stack(np.unravel_index(cells, (g,) * d), axis=1).astype(np.float64) - g // 2


CONTINUOUS_SAMPLES = {
    "normal": lambda rng, n, d: rng.standard_normal((n, d)),
    "uniform": lambda rng, n, d: rng.uniform(-1.0, 2.0, size=(n, d)),
    "student-t": lambda rng, n, d: rng.standard_t(3, size=(n, d)),
    "lattice": distinct_lattice,
}


def test_univariate_three_point_example():
    # targets for n=3, d=1 are (1/2, 1/4, 3/4); optimal matching is monotone
    ranks = row_ranks(np.array([[3.0], [1.0], [2.0]]))
    np.testing.assert_allclose(ranks[:, 0], [0.75, 0.25, 0.5])


def test_single_row_gets_first_target():
    ranks = row_ranks(np.array([[12.3, -4.0]]))
    np.testing.assert_allclose(ranks, halton_block(1, 2))


def test_halton_block_is_fixed_point():
    block = halton_block(16, 2)
    perm = empirical_ranks(block)
    np.testing.assert_array_equal(perm, np.arange(16))
    assert matched_cost(block, perm) == 0.0


def test_univariate_order_consistency(rng):
    sample = rng.standard_normal((40, 1))
    ranks = row_ranks(sample)[:, 0]
    assert np.array_equal(np.argsort(sample[:, 0]), np.argsort(ranks))


def test_monge_cost_matches_brute_force(rng):
    for _ in range(60):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(2, 6))
        sample = rng.standard_normal((n, d))
        if rng.uniform() < 0.3:
            sample = np.round(sample)
        perm = empirical_ranks(sample)
        oracle = brute_force_lsap_cost(rank_cost_matrix(sample, halton_block(n, d)))
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
        assert matched_cost(sample, perm) == pytest.approx(oracle, abs=1e-12)


def test_match_ranks_univariate_example():
    r = match_ranks(np.array([[0.1], [0.9]]), np.array([[5.0], [-2.0]]))
    np.testing.assert_array_equal(r, [1, 0])


def test_match_ranks_aligns_targets(rng):
    latent = rng.standard_normal((25, 3))
    base = rng.standard_normal((25, 3))
    r = match_ranks(latent, base)
    latent_ranks = row_ranks(latent)
    base_ranks = row_ranks(base)
    np.testing.assert_allclose(base_ranks[r], latent_ranks)


def test_exact_matching_zero_discrepancy(rng):
    latent = rng.standard_normal((30, 2))
    base = rng.standard_normal((30, 2))
    r = match_ranks(latent, base)
    assert rank_discrepancy(base[r], latent) == 0.0


def test_discrepancy_hand_values(rng):
    sample = rng.standard_normal((12, 2))
    assert rank_discrepancy(sample, sample) == 0.0

    # swapped rows in d=1 exchange targets 1/2 and 1/4
    assert rank_discrepancy(np.array([[1.0], [2.0]]), np.array([[2.0], [1.0]])) == pytest.approx(0.25)

    # same orderings in d=1 imply identical rank maps
    a = np.array([[0.0], [5.0], [2.0]])
    b = np.array([[-3.0], [9.0], [0.5]])
    assert rank_discrepancy(a, b) == 0.0


def test_errors():
    with pytest.raises(InputError):
        empirical_ranks(np.array([[np.nan]]))
    with pytest.raises(InputError):
        match_ranks(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(InputError):
        rank_discrepancy(np.zeros((3, 1)), np.zeros((3, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1024])
def test_univariate_sort_path_equals_the_lsap(rng, n):
    sample = rng.standard_normal((n, 1))
    perm = empirical_ranks(sample)
    np.testing.assert_array_equal(perm, lsap_rank_map(sample))


def test_univariate_sort_path_is_optimal_on_ties(rng):
    for _ in range(40):
        n = int(rng.integers(1, 8))
        sample = rng.integers(0, 3, size=(n, 1)).astype(np.float64)
        perm = empirical_ranks(sample)
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
        oracle = brute_force_lsap_cost(rank_cost_matrix(sample, halton_block(n, 1)))
        assert abs(matched_cost(sample, perm) - oracle) <= 1e-12


def test_cache_hit_returns_a_perm_the_caller_owns(rng):
    sample = rng.standard_normal((30, 2))
    first = empirical_ranks(sample)
    hits = pai.ranks._solve_rank_map.cache_info().hits
    second = empirical_ranks(sample.copy())
    assert pai.ranks._solve_rank_map.cache_info().hits == hits + 1
    np.testing.assert_array_equal(second, first)
    expected = first.copy()
    first[:] = 0
    second[:] = 0
    np.testing.assert_array_equal(empirical_ranks(sample), expected)
    np.testing.assert_array_equal(empirical_ranks(sample), lsap_rank_map(sample))


@pytest.mark.parametrize("d", [1, 3])
def test_mutating_the_input_in_place_gives_a_fresh_rank_map(rng, d):
    sample = rng.standard_normal((40, d))
    stale = empirical_ranks(sample)
    sample[[0, 1, 2]] = sample[[2, 0, 1]]
    sample[5] += 10.0
    fresh = empirical_ranks(sample)
    np.testing.assert_array_equal(fresh, lsap_rank_map(sample))
    assert not np.array_equal(fresh, stale)


def test_size_guard_fires_before_any_allocation():
    sample = np.zeros((HARD_SIZE_LIMIT + 1, 8))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="hard limit"):
            empirical_ranks(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a Halton block of this shape alone is 1 MB and its cost matrix 2 GB
    assert peak < 256 * 1024


@pytest.mark.parametrize("n", [2, 3, 17, 64, 300, 1024])
@pytest.mark.parametrize("kind", sorted(CONTINUOUS_SAMPLES))
def test_warm_started_solve_returns_the_plain_solve(rng, kind, n):
    for d in range(2, 9):
        sample = CONTINUOUS_SAMPLES[kind](rng, n, d)
        assert not pai.ranks._has_repeated_rows(sample)
        perm = fresh_rank_map(sample)
        np.testing.assert_array_equal(perm, lsap_rank_map(sample), err_msg=f"d={d}")


def test_repeated_rows_take_the_plain_solve(rng):
    samples = [rng.integers(0, 3, size=(n, d)).astype(np.float64) for n, d in ((9, 2), (40, 3), (200, 2))]
    signed_zero = rng.standard_normal((50, 3))
    signed_zero[[7, 30]] = signed_zero[4]
    signed_zero[7, 1], signed_zero[30, 1] = 0.0, -0.0
    samples.append(signed_zero)
    for sample in samples:
        assert pai.ranks._has_repeated_rows(sample)
        perm = fresh_rank_map(sample)
        np.testing.assert_array_equal(perm, lsap_rank_map(sample))
    distinct = signed_zero.copy()
    distinct[30, 1] = np.nextafter(0.0, 1.0)
    assert not pai.ranks._has_repeated_rows(distinct)


def test_a_rank_map_solve_holds_one_cost_matrix(rng):
    n, d = 2000, 8
    key = rng.standard_normal((n, d)).tobytes()
    pai.ranks._solve_rank_map.cache_clear()
    tracemalloc.start()
    try:
        pai.ranks._solve_rank_map(key, n, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x n float64 cost matrix is 32 MB; the reduction adds no second one
    assert peak < 1.25 * n * n * 8
