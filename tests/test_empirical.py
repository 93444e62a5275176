import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pai import Correction, EmpiricalDistribution, InputError, Sidedness, p_value

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def null_and_statistic(draw):
    """Draws and a statistic that is either arbitrary or tied with a draw."""
    values = draw(st.lists(finite, min_size=2, max_size=40))
    statistic = draw(st.one_of(finite, st.sampled_from(values)))
    return EmpiricalDistribution(np.array(values)), statistic


def test_distribution_invariants():
    dist = EmpiricalDistribution(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(dist.values, [1.0, 2.0, 3.0])
    assert dist.size == 3
    with pytest.raises(InputError):
        EmpiricalDistribution(np.array([1.0]))
    with pytest.raises(InputError):
        EmpiricalDistribution(np.array([1.0, np.nan]))


def test_raw_lower_tail_is_the_empirical_cdf():
    def cdf(dist, x):
        return p_value(dist, x, Sidedness.LOWER_TAIL, Correction.RAW)

    dist = EmpiricalDistribution(np.array([1.0, 2.0, 3.0]))
    assert cdf(dist, 2.0) == pytest.approx(2 / 3)
    assert cdf(dist, 0.0) == 0.0
    assert cdf(dist, 3.0) == 1.0
    assert cdf(dist, 99.0) == 1.0
    ties = EmpiricalDistribution(np.array([1.0, 2.0, 2.0, 3.0]))
    assert cdf(ties, 2.0) == pytest.approx(3 / 4)


def test_p_value_hand_values():
    draws = EmpiricalDistribution(np.array([1.0, 2.0, 3.0, 4.0]))
    # T at the median, raw two-sided: 2*min(1/2, 1/2) = 1
    assert p_value(draws, 2.5, Sidedness.TWO_SIDED, Correction.RAW) == pytest.approx(1.0)
    # T above all draws, plus-one upper: 1/(D+1)
    assert p_value(draws, 9.0, Sidedness.UPPER_TAIL, Correction.PLUS_ONE) == pytest.approx(1 / 5)
    # raw upper at 2.5: 1 - F(2.5) = 0.5
    assert p_value(draws, 2.5, Sidedness.UPPER_TAIL, Correction.RAW) == pytest.approx(0.5)
    # raw can reach exactly 0 beyond the draws; plus-one cannot
    assert p_value(draws, 9.0, Sidedness.UPPER_TAIL, Correction.RAW) == 0.0
    assert p_value(draws, -9.0, Sidedness.LOWER_TAIL, Correction.PLUS_ONE) == pytest.approx(1 / 5)


def test_upper_tail_monotone_and_bounded(rng):
    draws = EmpiricalDistribution(rng.standard_normal(200))
    grid = np.linspace(-4, 4, 200)
    ps = [p_value(draws, t, Sidedness.UPPER_TAIL, Correction.PLUS_ONE) for t in grid]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert min(ps) >= 1 / 201
    assert max(ps) <= 1.0


def test_quantile_linear_interpolation():
    dist = EmpiricalDistribution(np.array([0.0, 1.0, 2.0, 3.0]))
    assert dist.quantile(0.5) == pytest.approx(1.5)
    lo, hi = dist.quantile([0.0, 1.0])
    assert (lo, hi) == (0.0, 3.0)
    for q in (0.025, [0.025, 0.975], np.float64(0.3), np.array([0.0, 0.5, 1.0])):
        assert dist.quantile(q).tobytes() == np.quantile(dist.values, q).tobytes()


# Levels that raised a bare numpy error, or were taken, before the level
# was read by the number rule.
@pytest.mark.parametrize("q", [2.0, -0.1, np.nan, "a", True, [0.5, 1.5]], ids=repr)
def test_a_quantile_level_outside_the_unit_interval_is_an_input_error(q):
    with pytest.raises(InputError, match="^quantile level q: "):
        EmpiricalDistribution(np.array([0.0, 1.0, 2.0, 3.0])).quantile(q)


@given(null_and_statistic(), st.sampled_from(list(Sidedness)))
def test_plus_one_p_values_lie_in_their_range(case, sidedness):
    dist, statistic = case
    p = p_value(dist, statistic, sidedness, Correction.PLUS_ONE)
    assert 1.0 / (dist.size + 1) <= p <= 1.0


@given(null_and_statistic(), st.sampled_from(list(Sidedness)))
def test_raw_p_values_lie_in_the_unit_interval(case, sidedness):
    dist, statistic = case
    assert 0.0 <= p_value(dist, statistic, sidedness, Correction.RAW) <= 1.0


@given(null_and_statistic(), st.sampled_from(list(Correction)))
def test_two_sided_p_value_is_twice_the_smaller_tail_capped_at_one(case, correction):
    dist, statistic = case
    two = p_value(dist, statistic, Sidedness.TWO_SIDED, correction)
    upper = p_value(dist, statistic, Sidedness.UPPER_TAIL, correction)
    lower = p_value(dist, statistic, Sidedness.LOWER_TAIL, correction)
    assert two <= 1.0
    assert two == min(1.0, 2.0 * min(upper, lower))
