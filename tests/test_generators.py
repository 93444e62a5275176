import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import numpy_gaussian_forward, rank_discrepancy, row_major_layouts
from scipy import stats

from pai import (
    InputError,
    PassConfig,
    PerturbationSpec,
    fit_copula,
    fit_gaussian,
    fit_location_scale,
    gaussian_from_params,
    load_model,
    pass_synthesize,
    sample_statistic_null,
    save_model,
)
from pai import dataio, fid, gaussian_summary, generators
from pai.generators import KINDS, CopulaTransport, FitInfo, GaussianTransport, LocationScaleTransport, Marginal
from pai.generators import fit_model
from pai.halton import MAX_DIM, halton_block
from pai.streams import PATH_PASS, derive_rng


def test_fit_gaussian_degenerate_sample():
    # a zero-trace sample gets the absolute fallback ridge * I
    model = fit_gaussian(np.zeros((10, 2)))
    np.testing.assert_allclose(model.mean, 0.0)
    np.testing.assert_allclose(model.cov, generators._RIDGE * np.eye(2), rtol=1e-12, atol=0.0)


def test_fit_gaussian_recovers_standard_normal():
    n = 10_000
    data = np.random.default_rng(11).standard_normal((n, 3))
    model = fit_gaussian(data)
    assert np.abs(model.mean).max() < 4.0 / math.sqrt(n)
    assert np.abs(model.cov - np.eye(3)).max() < 0.1


def test_gaussian_round_trip(rng):
    data = rng.standard_normal((50, 4)) @ np.diag([1.0, 0.5, 2.0, 1.5]) + np.arange(4)
    model = fit_gaussian(data)
    latent = rng.standard_normal((200, 4))
    np.testing.assert_allclose(model.inverse(model.forward(latent)), latent, atol=1e-8)


def test_fit_gaussian_errors():
    with pytest.raises(InputError):
        fit_gaussian(np.zeros((3, 2)))  # needs d + 2 rows
    with pytest.raises(InputError):
        fit_gaussian(np.array([[1.0], [np.nan], [2.0]]))


@pytest.mark.parametrize(
    "params",
    [
        {"mean": [0.0, np.nan], "cov": np.eye(2)},
        {"mean": np.zeros(2), "cov": [[1.0, np.inf], [np.inf, 1.0]]},
        {"mean": np.zeros(2), "chol": [[1.0, 0.0], [np.nan, 1.0]]},
    ],
)
def test_gaussian_from_params_rejects_non_finite_parameters(params):
    with pytest.raises(InputError, match="not finite"):
        gaussian_from_params(**params)


def test_fit_copula_independent_uniforms():
    data = np.random.default_rng(5).random((5000, 3))
    model = fit_copula(data)
    corr = model.latent_chol @ model.latent_chol.T
    off = corr - np.diag(np.diag(corr))
    assert np.abs(off).max() < 0.1


def test_copula_round_trip_interior(rng):
    data = np.random.default_rng(6).gamma(2.0, size=(2000, 2))
    model = fit_copula(data)
    latent = rng.standard_normal((500, 2))
    # keep to interior quantiles where the piecewise map is bijective
    latent = np.clip(latent, -2.3, 2.3)
    forward = model.forward(latent)
    np.testing.assert_allclose(model.inverse(forward), latent, atol=1e-6)


def test_copula_synthetic_marginals_match_holdout():
    n = 5000
    holdout = np.random.default_rng(9).exponential(size=(n, 2))
    model = fit_copula(holdout)
    synth = pass_synthesize(model, None, PassConfig(mc_seed=21), replicate=0, n=n)
    for j in range(2):
        d = stats.ks_2samp(synth[:, j], holdout[:, j], method="asymp").statistic
        assert d < 0.05


def _assert_average_ranks_match_scipy(column):
    column = np.asarray(column, dtype=np.float64)
    got = generators._average_ranks(column)
    want = stats.rankdata(column, method="average")
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# One decimal place on a narrow range, so most columns hold ties.
@given(st.lists(st.floats(-3.0, 3.0).map(lambda v: round(v, 1)), min_size=1, max_size=300))
def test_average_ranks_match_scipy_rankdata(values):
    _assert_average_ranks_match_scipy(values)


@pytest.mark.parametrize(
    "column",
    [[0.0, -0.0, 0.0, 1.0, -0.0], [2.5] * 7, [4.0], np.random.default_rng(8).standard_normal(3200)],
    ids=["signed-zeros", "all-equal", "n1", "n3200"],
)
def test_average_ranks_edge_cases_match_scipy_rankdata(column):
    _assert_average_ranks_match_scipy(column)


def test_copula_constant_column_error():
    data = np.random.default_rng(3).random((100, 3))
    data[:, 1] = 7.0
    with pytest.raises(InputError, match="column 1"):
        fit_copula(data)
    with pytest.raises(InputError):
        fit_copula(data[:10])  # too few rows


def test_pass_exact_generator_is_standard_normal():
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    good = 0
    for run in range(100):
        cfg = PassConfig(mc_seed=5000 + run)
        sample = pass_synthesize(model, None, cfg, replicate=0, n=1000)
        ok = all(stats.kstest(sample[:, j], "norm", method="asymp").pvalue > 0.001 for j in range(2))
        good += ok
    assert good >= 95


def test_pass_rank_match_zero_tau_keeps_ranks(rng):
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    Z = rng.standard_normal((48, 2))
    cfg = PassConfig(perturbation=PerturbationSpec(tau=0.0), rank_match=True, mc_seed=77)
    sample = pass_synthesize(model, Z, cfg, replicate=0)
    assert rank_discrepancy(model.inverse(sample), model.inverse(Z)) == 0.0


def test_pass_determinism():
    model = gaussian_from_params(np.zeros(3), cov=np.eye(3))
    cfg = PassConfig(mc_seed=123)
    a = pass_synthesize(model, None, cfg, replicate=5, n=64)
    b = pass_synthesize(model, None, cfg, replicate=5, n=64)
    c = pass_synthesize(model, None, cfg, replicate=6, n=64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pass_errors(rng):
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    cfg = PassConfig(mc_seed=1)
    with pytest.raises(InputError):
        pass_synthesize(model, rng.standard_normal((10, 3)), cfg, replicate=0)
    with pytest.raises(InputError):
        pass_synthesize(model, None, cfg, replicate=0)  # no n
    with pytest.raises(InputError):
        pass_synthesize(model, None, cfg, replicate=-1, n=10)
    with pytest.raises(InputError):
        pass_synthesize(model, None, PassConfig(rank_match=True), replicate=0, n=10)


# An integer argument is an int or a numpy integer, never a bool or a float.
NOT_INTEGERS = pytest.mark.parametrize(
    "value", [1.5, 1.0, True, np.True_, "1"], ids=["half", "float", "true", "np-true", "string"]
)
# The label that starts the error of each integer argument of the draw path.
LABELS = {"replicate": "replicate index", "n": "sample size n", "D": "Monte Carlo size D",
          "first_replicate": "first replicate index"}


@NOT_INTEGERS
def test_pass_config_refuses_a_seed_that_is_not_an_integer(value):
    with pytest.raises(InputError, match="^mc_seed: "):
        PassConfig(mc_seed=value)


@NOT_INTEGERS
@pytest.mark.parametrize("argument", ["replicate", "n"])
def test_pass_refuses_a_draw_argument_that_is_not_an_integer(value, argument):
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    arguments = {"replicate": 0, "n": 3, argument: value}
    with pytest.raises(InputError, match=f"^{LABELS[argument]}: "):
        pass_synthesize(model, None, PassConfig(mc_seed=1), **arguments)


@NOT_INTEGERS
@pytest.mark.parametrize("argument", ["n", "D", "first_replicate"])
def test_null_refuses_a_draw_argument_that_is_not_an_integer(monkeypatch, value, argument):
    model = gaussian_from_params(np.zeros(1), cov=np.eye(1))
    monkeypatch.setattr(generators, "latent_block", lambda *args: pytest.fail("drew before the check"))
    arguments = {"n": 4, "D": 3, "first_replicate": 0, argument: value}
    with pytest.raises(InputError, match=f"^{LABELS[argument]}: "):
        sample_statistic_null(model, statistic=lambda chunk: chunk.sum(axis=(1, 2)), cfg=PassConfig(), **arguments)


def test_numpy_integer_draw_arguments_draw_the_streams_of_ints():
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    as_ints = pass_synthesize(model, None, PassConfig(mc_seed=3), 5, n=4)
    as_numpy = pass_synthesize(model, None, PassConfig(mc_seed=np.int64(3)), np.uint64(5), n=np.int32(4))
    assert np.array_equal(as_ints, as_numpy)
    mean = lambda chunk: chunk.mean(axis=(1, 2))  # noqa: E731
    ints = sample_statistic_null(model, 4, 3, mean, PassConfig(mc_seed=3), first_replicate=5)
    numpy = sample_statistic_null(model, np.int64(4), np.int64(3), mean, PassConfig(mc_seed=3), np.int64(5))
    assert np.array_equal(ints.values, numpy.values)


def test_null_distribution_constant_statistic():
    model = gaussian_from_params(np.zeros(1), cov=np.eye(1))
    dist = sample_statistic_null(
        model, n=10, D=25, statistic=lambda z: np.full(z.shape[0], 4.5), cfg=PassConfig(mc_seed=2)
    )
    assert dist.size == 25
    assert np.all(dist.values == 4.5)


def test_null_distribution_of_the_mean():
    model = gaussian_from_params(np.zeros(1), cov=np.eye(1))
    dist = sample_statistic_null(
        model, n=100, D=2000, statistic=lambda z: z.mean(axis=(1, 2)), cfg=PassConfig(mc_seed=3)
    )
    sd = dist.values.std(ddof=1)
    assert abs(sd - 0.1) < 0.015  # within 15% of 1/sqrt(n)


def test_null_distribution_minimal_and_errors():
    model = gaussian_from_params(np.zeros(1), cov=np.eye(1))
    dist = sample_statistic_null(
        model, n=5, D=2, statistic=lambda z: z.mean(axis=(1, 2)), cfg=PassConfig(mc_seed=4)
    )
    assert dist.size == 2
    assert np.isfinite(dist.quantile(0.5))
    with pytest.raises(InputError, match="replicate 0"):
        sample_statistic_null(
            model, n=5, D=3, statistic=lambda z: np.full(z.shape[0], np.nan), cfg=PassConfig(mc_seed=4)
        )
    with pytest.raises(InputError):
        sample_statistic_null(
            model, n=5, D=1, statistic=lambda z: np.zeros(z.shape[0]), cfg=PassConfig(mc_seed=4)
        )


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_pass_stream_layout_is_base_then_noise(tau):
    # independent oracle: two separate draws from the replicate's own stream
    # and the textbook push-back, outside the package's layout helpers
    model = gaussian_from_params(np.zeros(3), chol=np.eye(3))
    n, mc_seed, replicate = 9, 23, 4
    rng = derive_rng(mc_seed, PATH_PASS, replicate)
    base = rng.standard_normal((n, 3))
    expected = (base + tau * rng.standard_normal((n, 3))) / math.sqrt(1 + tau**2) if tau > 0 else base
    cfg = PassConfig(perturbation=PerturbationSpec(tau=tau), mc_seed=mc_seed)
    assert pass_synthesize(model, None, cfg, replicate=replicate, n=n).tobytes() == expected.tobytes()


def _recording(chunks: list):
    """A batched statistic that keeps a copy of every chunk it is given."""

    def statistic(chunk):
        chunks.append(chunk.copy())
        return np.zeros(chunk.shape[0])

    return statistic


def _must_not_run(*args):
    raise AssertionError("the arguments were not checked before the first allocation or draw")


def test_replicate_indices_lie_below_2_to_the_64():
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    cfg = PassConfig(mc_seed=3)
    last = 2**64 - 1
    expected = derive_rng(3, PATH_PASS, last).standard_normal((5, 2))
    assert pass_synthesize(model, None, cfg, replicate=last, n=5).tobytes() == expected.tobytes()
    with pytest.raises(InputError, match=r"below 2\*\*64"):
        pass_synthesize(model, None, cfg, replicate=2**64, n=5)


def test_rank_alignment_takes_one_sample(monkeypatch):
    monkeypatch.setattr(generators, "_draw_replicate", _must_not_run)
    with pytest.raises(InputError, match="one sample, got 2"):
        generators.latent_block(PassConfig(), PATH_PASS, 0, 2, 5, 2, align=lambda base: np.arange(5))


def test_rank_matching_rejects_a_dimension_without_halton_targets_before_drawing(monkeypatch):
    dim = MAX_DIM + 1
    model = gaussian_from_params(np.zeros(dim), cov=np.eye(dim))
    inference = np.random.default_rng(4).standard_normal((6, dim))
    monkeypatch.setattr(generators, "_draw_replicate", _must_not_run)
    with pytest.raises(InputError, match=f"unsupported dimension {dim}"):
        pass_synthesize(model, inference, PassConfig(rank_match=True), replicate=0)
    with pytest.raises(InputError, match=f"unsupported dimension {dim}"):
        halton_block(6, dim)


def test_null_replicates_stack_unmatched_pass_streams(monkeypatch):
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    cfg = PassConfig(perturbation=PerturbationSpec(tau=0.3), rank_match=True, mc_seed=5)
    chunks = []
    sample_statistic_null(model, 7, 3, _recording(chunks), cfg, first_replicate=4)
    stack = np.concatenate(chunks)
    assert stack.shape == (3, 7, 2)
    unmatched = PassConfig(perturbation=PerturbationSpec(tau=0.3), mc_seed=5)
    for k in range(3):
        np.testing.assert_array_equal(stack[k], pass_synthesize(model, None, unmatched, replicate=4 + k, n=7))
    monkeypatch.setattr(generators, "allocate", _must_not_run)
    monkeypatch.setattr(generators, "_draw_replicate", _must_not_run)
    for n, D, first in ((7, 1, 0), (0, 3, 0), (7, 3, -1)):
        with pytest.raises(InputError):
            sample_statistic_null(model, n, D, _recording(chunks), cfg, first_replicate=first)
    assert len(chunks) == 1


def _model_of_kind(kind: str) -> object:
    rng = np.random.default_rng(31)
    X = rng.standard_normal((150, 3))
    y = X[:, 0] ** 2 + 0.5 * X[:, 2] + (0.3 + 0.2 * np.abs(X[:, 0])) * rng.standard_normal(150)
    return fit_model(kind, np.column_stack((y, X)))


@pytest.mark.parametrize("kind", KINDS)
def test_forward_scans_its_latent_once(monkeypatch, kind):
    # the location-scale kind maps its feature columns with the copula's
    # unchecked map, so no kind checks a chunk twice
    model = _model_of_kind(kind)
    latent = np.random.default_rng(32).standard_normal((10, 50, model.dim))
    expected = model.forward(latent)
    as_matrix = generators.as_matrix
    scans = []

    def counting_as_matrix(data, name, *args, **kwargs):
        scans.append((name, np.shape(data)))
        return as_matrix(data, name, *args, **kwargs)

    monkeypatch.setattr(generators, "as_matrix", counting_as_matrix)
    assert model.forward(latent).tobytes() == expected.tobytes()
    assert scans == [("latent", latent.shape)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(50, 4), (10, 50, 4)], ids=["matrix", "stack"])
def test_forward_leaves_its_latent_unchanged(kind, shape):
    model = _model_of_kind(kind)
    latent = np.random.default_rng(33).standard_normal(shape)
    before = latent.tobytes()
    model.forward(latent)
    assert latent.tobytes() == before


@pytest.mark.parametrize("n", [3, 8, 9, 150])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_gaussian_forward_has_the_bits_of_numpys_own_expression(d, n):
    rng = np.random.default_rng(34)
    model = fit_gaussian(rng.standard_normal((40, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d))
    layouts = row_major_layouts(rng, n, d)
    layouts["fortran stack"] = np.asfortranarray(layouts["stack"])
    layouts["fortran matrix"] = np.asfortranarray(layouts["matrix"])
    for name, latent in layouts.items():
        expected = numpy_gaussian_forward(model.mean, model.chol, latent[:, None] if latent.ndim == 1 else latent)
        assert model.forward(latent).tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_null_chunks_are_the_pass_synthesize_samples(monkeypatch, kind, tau):
    # n = 13 rows is no multiple of a BLAS kernel's row block: mapped as one
    # (B*n)-row matrix, the location-scale kind's 10-term design products
    # would round some rows of most replicates differently. Every chunk after
    # the first, and with first = 6 the first too, starts past replicate 0.
    model = _model_of_kind(kind)
    cfg = PassConfig(perturbation=PerturbationSpec(tau=tau), mc_seed=17)
    n, D = 13, 11
    default_budget = dataio._CHUNK_VALUES
    for first in (0, 6):
        expected = [pass_synthesize(model, None, cfg, replicate=first + k, n=n) for k in range(D)]
        for budget, sizes in ((default_budget, [D]), (4 * n * model.dim, [4, 4, 3])):
            monkeypatch.setattr(dataio, "_CHUNK_VALUES", budget)
            chunks = []
            sample_statistic_null(model, n, D, _recording(chunks), cfg, first_replicate=first)
            assert [chunk.shape for chunk in chunks] == [(size, n, model.dim) for size in sizes]
            samples = [sample for chunk in chunks for sample in chunk]
            assert [s.tobytes() for s in samples] == [e.tobytes() for e in expected]


def test_sample_statistic_null_does_not_depend_on_the_chunk_budget(monkeypatch):
    model = gaussian_from_params(np.array([0.5, -1.0]), cov=np.array([[1.0, 0.3], [0.3, 2.0]]))
    ref = gaussian_summary(np.random.default_rng(3).standard_normal((40, 2)))
    cfg = PassConfig(perturbation=PerturbationSpec(tau=0.3), mc_seed=8)
    n, D, first = 30, 10, 5
    expected = np.array(
        [fid(ref, gaussian_summary(pass_synthesize(model, None, cfg, replicate=first + k, n=n))) for k in range(D)]
    )
    for replicates, sizes in ((1, [1] * D), (3, [3, 3, 3, 1]), (D, [D]), (D + 7, [D])):
        monkeypatch.setattr(dataio, "_CHUNK_VALUES", replicates * n * model.dim)
        seen = []

        def statistic(chunk):
            seen.append(fid(ref, gaussian_summary(chunk)))
            return seen[-1]

        dist = sample_statistic_null(model, n, D, statistic, cfg, first_replicate=first)
        assert [values.shape[0] for values in seen] == sizes
        assert np.concatenate(seen).tobytes() == expected.tobytes()
        assert dist.values.tobytes() == np.sort(expected).tobytes()


def test_sample_statistic_null_checks_the_statistic_shape():
    model = gaussian_from_params(np.zeros(1), cov=np.eye(1))
    cfg = PassConfig(mc_seed=4)
    for statistic in (lambda z: 0.0, lambda z: np.zeros(z.shape[0] - 1), lambda z: np.zeros((z.shape[0], 1))):
        with pytest.raises(InputError, match=r"to shape \(6,\)"):
            sample_statistic_null(model, n=5, D=6, statistic=statistic, cfg=cfg)


def test_non_finite_value_names_its_global_replicate(monkeypatch):
    monkeypatch.setattr(dataio, "_CHUNK_VALUES", 4 * 5)  # 4 replicates per chunk at n=5, dim=1
    model = gaussian_from_params(np.zeros(1), cov=np.eye(1))
    calls = []

    def statistic(chunk):
        calls.append(chunk.shape[0])
        values = chunk.mean(axis=(1, 2))
        if len(calls) == 2:
            values[1] = np.inf
        return values

    with pytest.raises(InputError, match=r"non-finite value on replicate 15$"):
        sample_statistic_null(model, n=5, D=10, statistic=statistic, cfg=PassConfig(mc_seed=4), first_replicate=10)
    assert calls == [4, 4]


def test_fit_model_dispatches_on_kind(rng):
    data = np.column_stack((rng.standard_normal(60), rng.random((60, 2))))
    for kind in KINDS:
        assert fit_model(kind, data).kind == kind
    with pytest.raises(InputError, match="unknown generator kind"):
        fit_model("vae", data)


def test_within_sample_rows_look_independent(rng):
    # mean pairwise inner product, standardized, stays within 4 / sqrt(#pairs)
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    Z = rng.standard_normal((200, 2))
    cfg = PassConfig(perturbation=PerturbationSpec(tau=0.2), rank_match=True, mc_seed=6)
    sample = pass_synthesize(model, Z, cfg, replicate=0)
    n, d = sample.shape
    gram = sample @ sample.T
    total = (gram.sum() - np.trace(gram)) / 2.0
    pairs = n * (n - 1) / 2
    standardized = (total / pairs) / math.sqrt(d)
    assert abs(standardized) <= 4.0 / math.sqrt(pairs)


def test_model_serialization_round_trip(tmp_path, rng):
    gaussian = fit_gaussian(rng.standard_normal((100, 3)))
    path = tmp_path / "gaussian.json"
    save_model(gaussian, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.mean, gaussian.mean)
    np.testing.assert_array_equal(loaded.chol, gaussian.chol)
    assert loaded.fit_info == gaussian.fit_info

    copula = fit_copula(np.random.default_rng(14).random((200, 2)))
    path2 = tmp_path / "copula.json"
    save_model(copula, path2)
    loaded2 = load_model(path2)
    np.testing.assert_array_equal(loaded2.latent_chol, copula.latent_chol)
    for a, b in zip(loaded2.marginals, copula.marginals):
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ps, b.ps)

    save_model(gaussian, tmp_path / "again.json")
    assert (tmp_path / "gaussian.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def _heteroscedastic_sample(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = 1.0 + X[:, 0] - X[:, 1] + np.exp(-1.0 + X[:, 0]) * rng.standard_normal(n)
    return np.column_stack((y, X))


def test_location_scale_round_trip(rng):
    data = _heteroscedastic_sample(2000, 15)
    model = fit_location_scale(data)
    assert model.dim == 3
    latent = np.clip(rng.standard_normal((500, 3)), -2.3, 2.3)
    np.testing.assert_allclose(model.inverse(model.forward(latent)), latent, atol=1e-8)
    # interior data rows map back onto themselves through the latent space
    interior = data[np.all(np.abs(model.inverse(data)) < 2.3, axis=1)]
    np.testing.assert_allclose(model.forward(model.inverse(interior)), interior, atol=1e-8)
    # the response map is increasing in z_0 at fixed features
    z = np.column_stack((np.linspace(-3.0, 3.0, 50), np.zeros(50), np.zeros(50)))
    assert np.all(np.diff(model.forward(z)[:, 0]) >= 0)


def test_location_scale_pass_rank_match_keeps_ranks():
    data = _heteroscedastic_sample(400, 16)
    model = fit_location_scale(data)
    cfg = PassConfig(perturbation=PerturbationSpec(tau=0.0), rank_match=True, mc_seed=8)
    sample = pass_synthesize(model, data[:48], cfg, replicate=0)
    assert sample.shape == (48, 3)
    assert rank_discrepancy(model.inverse(sample), model.inverse(data[:48])) == 0.0


def test_fit_location_scale_errors():
    data = _heteroscedastic_sample(200, 17)
    with pytest.raises(InputError, match="feature"):
        fit_location_scale(data[:, :1])
    # two features: 1 + 2 + 3 = 6 polynomial terms, so 6 rows are too few
    with pytest.raises(InputError, match="6 polynomial terms"):
        fit_location_scale(data[:6])
    constant = data.copy()
    constant[:, 2] = 4.0
    with pytest.raises(InputError, match="column 2"):
        fit_location_scale(constant)
    exact = data.copy()
    exact[:, 0] = 1.0 + exact[:, 1] * exact[:, 2]
    with pytest.raises(InputError, match="exact quadratic"):
        fit_location_scale(exact)
    exact[:, 0] = 3.0
    with pytest.raises(InputError, match="column 0"):
        fit_location_scale(exact)


def test_location_scale_serialization_round_trip(tmp_path, rng):
    model = fit_location_scale(_heteroscedastic_sample(300, 18))
    path = tmp_path / "ls.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == "location-scale"
    assert loaded.fit_info == model.fit_info
    for name in ("x_mean", "x_sd", "mean_coef", "scale_coef"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
    np.testing.assert_array_equal(loaded.residual.xs, model.residual.xs)
    np.testing.assert_array_equal(loaded.residual.ps, model.residual.ps)
    np.testing.assert_array_equal(loaded.features.latent_chol, model.features.latent_chol)
    latent = rng.standard_normal((100, 3))
    np.testing.assert_array_equal(loaded.forward(latent), model.forward(latent))
    save_model(loaded, tmp_path / "again.json")
    assert path.read_bytes() == (tmp_path / "again.json").read_bytes()


def _swap_first_knots(grid):
    grid[1], grid[2] = grid[2], grid[1]


def _false_for_the_knot_nearest_zero(grid):
    # Read as 0.0, false would keep the grid strictly increasing here.
    grid[int(np.argmin(np.abs(grid)))] = False


_FITTERS = {"gaussian": fit_gaussian, "copula": fit_copula, "location-scale": fit_location_scale}


@pytest.mark.parametrize(
    "kind, mutate",
    [
        ("gaussian", lambda d: d.update(chol=[[1.0, 0.0]])),
        ("gaussian", lambda d: d["chol"][1].__setitem__(1, -1.0)),
        ("gaussian", lambda d: d["chol"][0].__setitem__(1, 0.5)),
        ("gaussian", lambda d: d.update(mean=[0.0, float("nan")])),
        ("gaussian", lambda d: d.update(mean=[0.0, "zero"])),
        ("gaussian", lambda d: d.update(mean=[[0.0], [1.0, 2.0]])),
        ("gaussian", lambda d: d.update(dim=True)),
        ("gaussian", lambda d: d.update(dim=3)),
        ("copula", lambda d: d.update(marginals=d["marginals"][:1])),
        ("copula", lambda d: _swap_first_knots(d["marginals"][0]["xs"])),
        ("copula", lambda d: _swap_first_knots(d["marginals"][1]["ps"])),
        ("copula", lambda d: d["marginals"][1]["ps"].__setitem__(-1, 0.99)),
        ("copula", lambda d: d["marginals"][0].update(xs=d["marginals"][0]["xs"][:-1])),
        ("copula", lambda d: d.update(latent_chol=[[1.0]])),
        ("location-scale", lambda d: d.update(mean_coef=d["mean_coef"][:-1])),
        ("location-scale", lambda d: d["scale_coef"].__setitem__(2, float("inf"))),
        ("location-scale", lambda d: d["x_sd"].__setitem__(1, 0.0)),
        ("location-scale", lambda d: _swap_first_knots(d["residual"]["ps"])),
        ("location-scale", lambda d: d.update(residual=None)),
        ("location-scale", lambda d: d.update(latent_chol=[[1.0, 0.0, 0.0]] * 3)),
        ("location-scale", lambda d: d["fitted_on"].update(n_rows="many")),
        ("location-scale", lambda d: d.update(dim=1)),
        ("location-scale", lambda d: d.update(kind="spline")),
        ("location-scale", lambda d: d.update(kind=[])),
        ("location-scale", lambda d: d.update(kind={})),
        ("location-scale", lambda d: d.update(kind=None)),
        ("location-scale", lambda d: d.update(kind=1)),
        # JSON booleans are not numbers, wherever they sit
        ("gaussian", lambda d: d.update(mean=[True, 0.5])),
        ("gaussian", lambda d: d.update(mean=[1, True])),
        ("gaussian", lambda d: d["chol"][1].__setitem__(1, True)),
        ("copula", lambda d: _false_for_the_knot_nearest_zero(d["marginals"][1]["xs"])),
        ("location-scale", lambda d: d["x_sd"].__setitem__(0, True)),
    ],
)
def test_load_model_rejects_bad_fields(tmp_path, kind, mutate):
    data = _heteroscedastic_sample(300, 19)
    # a 2-D model for the gaussian and copula kinds, response + 2 features otherwise
    model = _FITTERS[kind](data if kind == "location-scale" else data[:, 1:])
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_model(path)


def test_a_nested_field_error_names_its_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(fit_copula(_heteroscedastic_sample(300, 21)[:, 1:]), path)
    doc = json.loads(path.read_text())
    doc["marginals"][1]["ps"][1] = True
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"^model field 'marginals\[1\]': ps: expected numbers, found \['bool'\]$"):
        load_model(path)
    del doc["marginals"][1]["ps"]
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"^model document lacks field 'marginals\[1\]\.ps'$"):
        load_model(path)


# One model file per kind, written from hand-chosen arrays; nothing is fitted,
# so BLAS rounding cannot move their bytes.
DATA = pathlib.Path(__file__).parent / "data"


def _plotting_grid(n):
    return np.concatenate(([0.0], (np.arange(1, n + 1) - 0.5) / n, [1.0]))


def _hand_built(kind):
    """The model of the pinned file of ``kind``, built by its constructors (lists, numpy scalars and all)."""
    info = FitInfo(n_rows=np.int64(3), data_hash="hand-built")
    if kind == "gaussian":
        return GaussianTransport(mean=[0.5, -1.25], chol=[[1.5, 0.0], [0.1, 0.75]], fit_info=FitInfo(12, "hand-built"))
    if kind == "copula":
        return CopulaTransport((Marginal(xs=[-2.0, -0.5, 0.0, 1.5, 3.0], ps=_plotting_grid(3)),), np.eye(1), info)
    return LocationScaleTransport(
        marginals=(
            Marginal(xs=np.array([-1.0, 0.1, 0.2, 0.3, 1.4]), ps=_plotting_grid(3)),
            # a tied grid
            Marginal(xs=np.array([-0.5, 0.5, 1.5, 2.5]), ps=np.array([0.0, 1 / 6, 5 / 6, 1.0])),
        ),
        latent_chol=np.array([[1.0, 0.0], [0.6, 0.8]]),
        x_mean=np.array([0.2, 0.8333333333333334]),
        x_sd=np.array([0.1, 0.4714045207910317]),
        mean_coef=np.array([1.0, -0.5, 0.25, 0.125, -0.0625, 0.03125]),
        scale_coef=np.array([-1.0, 0.2, -0.3]),
        residual=Marginal(xs=np.array([-3.0, -1.0, 0.0, 1.0, 3.0]), ps=_plotting_grid(3)),
        fit_info=info,
    )


@pytest.mark.parametrize("kind", KINDS)
def test_a_pinned_model_file_keeps_its_bytes(tmp_path, kind):
    save_model(load_model(DATA / f"model-{kind}.json"), tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == (DATA / f"model-{kind}.json").read_bytes()


@pytest.mark.parametrize("kind", KINDS)
def test_a_model_its_constructor_accepts_saves_and_loads_with_the_same_bytes(tmp_path, kind):
    save_model(_hand_built(kind), tmp_path / "built.json")
    assert (tmp_path / "built.json").read_bytes() == (DATA / f"model-{kind}.json").read_bytes()
    save_model(load_model(tmp_path / "built.json"), tmp_path / "loaded.json")
    assert (tmp_path / "loaded.json").read_bytes() == (tmp_path / "built.json").read_bytes()


@pytest.mark.parametrize(
    "build, kind, edit, message",
    [
        (
            lambda: GaussianTransport(mean=np.zeros(2), chol=np.array([[1.0, 5.0], [0.0, 1.0]]), fit_info=FitInfo(0, "x")),
            "gaussian", lambda doc: doc.update(chol=[[1.0, 5.0], [0.0, 1.0]]),
            r"chol: is not lower triangular with a positive diagonal",
        ),
        (
            lambda: GaussianTransport(mean=np.zeros(3), chol=np.eye(2), fit_info=FitInfo(0, "x")),
            "gaussian", lambda doc: doc.update(mean=[0.0, 0.0, 0.0], chol=[[1.0, 0.0], [0.0, 1.0]]),
            r"chol: has shape \(2, 2\), expected \(3, 3\)",
        ),
        (
            lambda: FitInfo(n_rows="x", data_hash=3),
            "gaussian", lambda doc: doc.update(fitted_on={"n_rows": "x", "data_hash": 3}),
            r"n_rows: expected numbers, found \['str'\]",
        ),
        (
            lambda: dataclasses.replace(_hand_built("location-scale"), mean_coef=np.ones(5)),
            "location-scale", lambda doc: doc.update(mean_coef=[1.0] * 5),
            r"mean_coef: has shape \(5,\), expected \(6,\)",
        ),
        (
            lambda: Marginal(xs=np.array([0.0, 2.0, 1.0]), ps=np.array([0.0, 0.5, 1.0])),
            "copula", lambda doc: doc["marginals"][0].update(xs=[0.0, 2.0, 1.0], ps=[0.0, 0.5, 1.0]),
            r"xs: is not a strictly increasing grid of at least 2 knots",
        ),
    ],
    ids=["upper-chol", "chol-for-another-dim", "fit-info", "short-mean-coef", "decreasing-xs"],
)
def test_a_constructor_refuses_what_load_model_refuses(tmp_path, build, kind, edit, message):
    with pytest.raises(InputError, match=f"^{message}$") as built:
        build()
    doc = json.loads((DATA / f"model-{kind}.json").read_text())
    edit(doc)
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with pytest.raises(InputError) as loaded:
        load_model(tmp_path / "model.json")
    # the load error is the constructor's, behind the path of the record it concerns
    assert str(loaded.value).endswith(f": {built.value}")


@pytest.mark.parametrize("kind", ["gaussian", "copula", "location-scale"])
def test_load_model_missing_fields(tmp_path, kind):
    data = _heteroscedastic_sample(300, 20)
    path = tmp_path / "model.json"
    save_model(_FITTERS[kind](data), path)
    doc = json.loads(path.read_text())
    for key in sorted(doc):
        partial = {k: v for k, v in doc.items() if k != key}
        path.write_text(json.dumps(partial))
        with pytest.raises(InputError):
            load_model(path)


def test_load_model_rejects_bad_files(tmp_path):
    path = tmp_path / "model.json"
    for text in ("{not json", "[1, 2]", "", json.dumps({"schema": "pai-model/0"})):
        path.write_text(text)
        with pytest.raises(InputError):
            load_model(path)
    with pytest.raises(InputError):
        load_model(tmp_path / "absent.json")


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _interp_quantile(self, p):
    return np.interp(p, self.ps, self.xs)


def test_plotting_grid_quantile_has_the_bits_of_np_interp(rng):
    from scipy.special import ndtr

    # Many small grids of uneven spacing: at a knot, the neighbouring
    # segment's formula differs from xs[j] in the last bit only now and then.
    sizes = [3000] + rng.integers(2, 400, 400).tolist()
    for n in sizes:
        column = np.cumsum(rng.standard_exponential(n) * 10.0 ** rng.uniform(-3.0, 3.0, n))
        column[0] = 0.0  # a +0.0 knot keeps the direct index
        marginal = generators._fit_marginal(rng.permutation(column), 0)
        assert marginal._slopes is not None
        knots = marginal.ps
        p = np.concatenate((
            ndtr(rng.standard_normal(n)),
            knots, np.nextafter(knots, 0.0), np.nextafter(knots, 1.0),
            [0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324],
        ))
        p = p[(p >= 0.0) & (p <= 1.0)]
        np.testing.assert_array_equal(_bits(marginal.quantile(p)), _bits(np.interp(p, knots, marginal.xs)))
    # A stack maps as its flattened values do.
    stack = ndtr(rng.standard_normal((3, 40, 2)))[..., 1]
    np.testing.assert_array_equal(_bits(marginal.quantile(stack)), _bits(np.interp(stack, knots, marginal.xs)))


@pytest.mark.parametrize("bad", [-0.1, 1.1, -5e-324, np.nan])
def test_plotting_grid_quantile_outside_the_unit_interval_takes_np_interp(rng, bad):
    marginal = generators._fit_marginal(rng.standard_normal(200), 0)
    p = np.append(rng.random(50), bad)
    np.testing.assert_array_equal(_bits(marginal.quantile(p)), _bits(np.interp(p, marginal.ps, marginal.xs)))
    assert marginal.quantile(np.empty(0)).shape == (0,)


def test_only_an_untied_finite_grid_without_negative_zero_takes_the_direct_index(tmp_path, rng):
    model = fit_location_scale(_heteroscedastic_sample(500, 21))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    pairs = zip((model.residual, *model.features.marginals), (loaded.residual, *loaded.features.marginals))
    for fitted, reloaded in pairs:
        assert fitted._slopes is not None
        np.testing.assert_array_equal(reloaded._slopes, fitted._slopes)
    assert [f.name for f in dataclasses.fields(generators.Marginal)] == ["xs", "ps"]

    tied = generators._fit_marginal(np.array([1.0, 1.0, 2.0, 3.0, 4.0, 5.0]), 0)
    assert tied._slopes is None
    # At the knot of a -0.0 sample value np.interp keeps the sign that 0 + xs[j] would lose.
    signed = generators._fit_marginal(np.array([-0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), 0)
    assert signed._slopes is None
    assert math.copysign(1.0, signed.quantile(signed.ps[1:2])[0]) == -1.0


def test_transports_and_intervals_match_the_np_interp_quantile(monkeypatch):
    from pai import pai_interval

    data = _heteroscedastic_sample(600, 22)
    copula, location_scale = fit_copula(data), fit_location_scale(data)
    latent = np.random.default_rng(23).standard_normal((4, 50, 3))
    points = data[:7, 1:]

    def outputs():
        result = [copula.forward(latent), location_scale.forward(latent)]
        for model in (copula, location_scale):
            for tau in (0.0, 0.3):
                cfg = PassConfig(perturbation=PerturbationSpec(tau=tau), mc_seed=24)
                iv = pai_interval(model, points, 0.1, 300, cfg)
                result += [iv.lower, iv.upper, iv.center_estimate]
        return [_bits(values).tobytes() for values in result]

    fast = outputs()
    monkeypatch.setattr(generators.Marginal, "quantile", _interp_quantile)
    assert outputs() == fast
