import math

import numpy as np
import pytest
from scipy import stats

from pai import InputError, PerturbationSpec, perturb
from pai.streams import derive_rng


def test_spec_validation():
    with pytest.raises(InputError):
        PerturbationSpec(tau=-0.1)
    with pytest.raises(InputError):
        PerturbationSpec(tau=float("nan"))
    # tau**2 overflows float64 just above 1.34e154; perturb needs it finite.
    for tau in (1.35e154, 1e200, 1.7e308):
        with pytest.raises(InputError, match="tau is too large"):
            PerturbationSpec(tau=tau)
    rows = derive_rng(9).standard_normal((4, 2))
    out = perturb(rows, PerturbationSpec(tau=1.3e154), derive_rng(10).standard_normal(rows.shape))
    assert np.isfinite(out).all()


def test_identity_at_zero_tau(rng):
    rows = rng.standard_normal((50, 3))
    out = perturb(rows, PerturbationSpec(tau=0.0), None)
    np.testing.assert_array_equal(out, rows)
    assert out is not rows


def test_gaussian_unit_tau_variance():
    rng_local = derive_rng(7)
    rows = rng_local.standard_normal((200_000, 1))
    out = perturb(rows, PerturbationSpec(tau=1.0), derive_rng(8).standard_normal(rows.shape))
    n = out.shape[0]
    assert abs(out.mean()) < 3.0 / math.sqrt(n)
    assert abs(out.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)


def test_gaussian_distribution_preservation():
    # d=2, n=5000, four noise sizes: every coordinate passes a KS check
    # against the standard normal in at least 95 of 100 seeded runs.
    n, d = 5000, 2
    for tau in (0.0, 0.2, 0.5, 1.0):
        spec = PerturbationSpec(tau=tau)
        good = 0
        for run in range(100):
            stream = derive_rng(900 + run)
            rows = stream.standard_normal((n, d))
            out = perturb(rows, spec, stream.standard_normal((n, d)) if tau > 0 else None)
            ok = all(stats.kstest(out[:, j], "norm", method="asymp").pvalue > 0.001 for j in range(d))
            good += ok
        assert good >= 95, f"tau={tau}: only {good}/100 runs preserved the base law"


def test_pushback_maps_are_increasing():
    # Gaussian push-back is a positive rescaling: order of the noisy input
    # is preserved exactly (noise is added before the map, so compare
    # against the rescaled input, not the unnoised one)
    tau = 0.7
    noisy = np.linspace(-3.0, 3.0, 500)[:, None]
    rescaled = noisy / math.sqrt(1.0 + tau**2)
    assert np.all(np.diff(rescaled[:, 0]) > 0)


def test_perturb_errors(rng):
    with pytest.raises(InputError):
        perturb(rng.standard_normal(5), PerturbationSpec(tau=0.1), derive_rng(1).standard_normal(5))
    with pytest.raises(InputError):
        perturb(np.array([[np.inf]]), PerturbationSpec(tau=0.1), derive_rng(1).standard_normal((1, 1)))


def test_a_stack_is_perturbed_slice_by_slice(rng):
    rows, noise = rng.standard_normal((2, 4, 9, 3))
    for tau, eps in ((0.0, None), (0.3, noise)):
        spec = PerturbationSpec(tau=tau)
        stacked = perturb(rows, spec, eps)
        slices = [perturb(rows[b], spec, None if eps is None else eps[b]) for b in range(rows.shape[0])]
        assert stacked.tobytes() == np.stack(slices).tobytes()


def test_noise_must_match_the_perturbation(rng):
    rows = rng.standard_normal((6, 2))
    with pytest.raises(InputError, match="needs its noise"):
        perturb(rows, PerturbationSpec(tau=0.2), None)
    for shape in ((6, 1), (5, 2), (1, 6, 2)):
        with pytest.raises(InputError, match="noise has shape"):
            perturb(rows, PerturbationSpec(tau=0.2), rng.standard_normal(shape))
    with pytest.raises(InputError, match="tau = 0"):
        perturb(rows, PerturbationSpec(tau=0.0), rng.standard_normal(rows.shape))
