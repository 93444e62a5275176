import math
import warnings

import numpy as np
import pytest
from oracles import numpy_summary, row_major_layouts, wasserstein_exact

from pai import InputError, fid, gaussian_summary
from pai.metrics import GaussianSummary


def test_gaussian_summary_hand_values():
    s = gaussian_summary(np.array([[0.0, 0.0], [2.0, 2.0]]))
    np.testing.assert_allclose(s.mean, [1.0, 1.0])
    np.testing.assert_allclose(s.cov, [[2.0, 2.0], [2.0, 2.0]])

    s = gaussian_summary(np.full((5, 2), 3.0))
    np.testing.assert_allclose(s.cov, 0.0)

    s = gaussian_summary(np.array([[0.0], [1.0]]))
    assert s.mean[0] == 0.5
    assert s.cov[0, 0] == 0.5

    with pytest.raises(InputError):
        gaussian_summary(np.array([[1.0, 2.0]]))


def test_fid_hand_values():
    a = GaussianSummary(np.zeros(1), np.eye(1))
    assert fid(a, a) == 0.0
    b = GaussianSummary(np.ones(1), np.eye(1))
    assert fid(a, b) == pytest.approx(1.0)
    c = GaussianSummary(np.zeros(2), np.eye(2))
    d = GaussianSummary(np.zeros(2), 4.0 * np.eye(2))
    assert fid(c, d) == pytest.approx(2.0)


@pytest.mark.parametrize("cov", [np.eye(3), np.zeros(2)], ids=["3x3-for-2", "vector"])
def test_a_summary_whose_cov_does_not_fit_its_mean_is_an_input_error(rng, cov):
    # a bare ValueError from matmul, and an AxisError, before summaries checked their shapes
    with pytest.raises(InputError, match=r"^cov must have shape \(\.\.\., d, d\) for a mean of shape \(\.\.\., d\)"):
        fid(GaussianSummary(np.zeros(2), cov), gaussian_summary(rng.standard_normal((10, 2))))


def test_fid_symmetry_and_translation(rng):
    for _ in range(10):
        m = rng.standard_normal((80, 3))
        w = rng.standard_normal((80, 3)) @ np.diag([1.0, 2.0, 0.5]) + 1.0
        a, b = gaussian_summary(m), gaussian_summary(w)
        assert fid(a, b) == pytest.approx(fid(b, a), abs=1e-8)
        delta = np.array([0.3, -1.2, 0.7])
        shifted_both = (
            GaussianSummary(a.mean + delta, a.cov),
            GaussianSummary(b.mean + delta, b.cov),
        )
        assert fid(*shifted_both) == pytest.approx(fid(a, b), abs=1e-8)
        shifted_one = GaussianSummary(a.mean + delta, a.cov)
        assert fid(shifted_one, a) == pytest.approx(delta @ delta, abs=1e-8)


@pytest.mark.parametrize("n", [3, 8, 9, 150])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_summary_has_the_bits_of_numpys_own_expressions(rng, d, n):
    for name, sample in row_major_layouts(rng, n, d).items():
        summary = gaussian_summary(sample)
        mean, cov = numpy_summary(sample[:, None] if sample.ndim == 1 else sample)
        assert summary.mean.tobytes() == mean.tobytes(), name
        assert summary.cov.tobytes() == cov.tobytes(), name
    # numpy's own sum order depends on the layout: down a Fortran-ordered
    # matrix, and down a Fortran-ordered stack of columns, it sums pairwise.
    # With d >= 2 the summary depends on the values alone and has the bits of
    # the C-ordered sample; a column keeps numpy's own.
    stack = row_major_layouts(rng, n, d)["stack"]
    for name, sample in {"fortran stack": stack, "fortran matrix": stack[0]}.items():
        fortran = np.asfortranarray(sample)
        summary = gaussian_summary(fortran)
        mean, cov = numpy_summary(fortran if d == 1 else sample)
        assert summary.mean.tobytes() == mean.tobytes(), name
        assert summary.cov.tobytes() == cov.tobytes(), name


@pytest.mark.parametrize("shape", [(40, 1), (40, 2), (40, 3), (5, 40, 2), (5, 40, 3)])
def test_summary_leaves_its_sample_unchanged(rng, shape):
    sample = rng.standard_normal(shape)
    before = sample.tobytes()
    gaussian_summary(sample)
    assert sample.tobytes() == before


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_stacked_summary_and_fid_equal_per_slice_calls(rng, d):
    big = rng.standard_normal((7, 60, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)
    for stack in (big[:, :30].copy(), big[:, ::2]):
        ref = gaussian_summary(rng.standard_normal((50, d)))
        stacked = gaussian_summary(stack)
        assert stacked.dim == d and stacked.mean.shape == (7, d) and stacked.cov.shape == (7, d, d)
        against_ref = fid(ref, stacked)
        halves = fid(gaussian_summary(stack[:, :13]), gaussian_summary(stack[:, 13:]))
        assert against_ref.shape == halves.shape == (7,)
        for k in range(7):
            alone = gaussian_summary(stack[k])
            assert stacked.mean[k].tobytes() == alone.mean.tobytes()
            assert stacked.cov[k].tobytes() == alone.cov.tobytes()
            assert against_ref[k].tobytes() == np.float64(fid(ref, alone)).tobytes()
            split = fid(gaussian_summary(stack[k, :13]), gaussian_summary(stack[k, 13:]))
            assert halves[k].tobytes() == np.float64(split).tobytes()
        assert isinstance(fid(ref, gaussian_summary(stack[0])), float)


def test_negative_eigenvalue_warning_fires_for_one_bad_slice(rng):
    good = gaussian_summary(rng.standard_normal((40, 2)))
    covs = np.stack([good.cov] * 4)
    covs[2] = [[1.0, 0.0], [0.0, -1e-3]]
    stack = GaussianSummary(np.zeros((4, 2)), covs)
    unit = GaussianSummary(np.zeros(2), np.eye(2))
    for label, pair in (("cross covariance product", (unit, stack)), ("covariance", (stack, unit))):
        with pytest.warns(RuntimeWarning, match=f"^{label} has negative eigenvalue mass 1.000e-03"):
            values = fid(*pair)
        for k in range(4):
            sliced = GaussianSummary(np.zeros(2), covs[k])
            alone_pair = (unit, sliced) if pair[0] is unit else (sliced, unit)
            with warnings.catch_warnings():
                warnings.simplefilter("error" if k != 2 else "ignore")
                assert values[k] == fid(*alone_pair)


def test_fid_below_squared_w2(rng):
    # squared 2-Wasserstein between the samples dominates the Frechet
    # distance of their fitted Gaussians (up to sampling error)
    a = rng.standard_normal((1000, 2))
    b = rng.standard_normal((1000, 2)) * 1.8 + np.array([1.5, -0.5])
    f = fid(gaussian_summary(a), gaussian_summary(b))
    w2 = wasserstein_exact(a, b, order=2)
    assert f <= w2**2 * 1.15


def test_wasserstein_hand_values(rng):
    a = rng.standard_normal((20, 2))
    assert wasserstein_exact(a, a, 1) == pytest.approx(0.0, abs=1e-12)
    assert wasserstein_exact(a, a, 2) == pytest.approx(0.0, abs=1e-12)

    x = np.array([[0.0], [1.0]])
    assert wasserstein_exact(x, x + 1.0, 1) == pytest.approx(1.0)
    assert wasserstein_exact(x, x + 1.0, 2) == pytest.approx(1.0)

    a = np.array([[0.0], [0.0]])
    b = np.array([[0.0], [2.0]])
    assert wasserstein_exact(a, b, 1) == pytest.approx(1.0)
    assert wasserstein_exact(a, b, 2) == pytest.approx(math.sqrt(2.0))

    with pytest.raises(InputError):
        wasserstein_exact(np.zeros((2, 1)), np.zeros((3, 1)), 2)
    with pytest.raises(InputError):
        wasserstein_exact(a, b, 3)
