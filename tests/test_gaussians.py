"""Tests for the Gaussian algebra: evaluation, products, divisions, powers.

Closed-form results are checked against scipy evaluations, dense quadrature,
and large-sample Monte Carlo so that every identity is confirmed through an
independent route.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from trackfuse import (
    GaussianDensity,
    GaussianMixture,
    NonPositiveDefiniteResult,
    NotPositiveDefinite,
    NotSymmetric,
    density_from_dict,
    density_to_dict,
    gaussian_division,
    gaussian_product,
    moment_match,
    scaled_power,
)
from trackfuse.gaussians import assert_spd, spd_inv, symmetrize

from oracles import random_gaussian, random_spd, mean_with_batch_se


def test_standard_normal_at_origin():
    d = GaussianDensity(np.zeros(1), np.eye(1))
    assert d.pdf(0.0) == pytest.approx(0.3989422804, abs=1e-5)
    assert d.logpdf(0.0) == pytest.approx(math.log(0.3989422804), abs=1e-5)


def test_isotropic_2d_evaluation_matches_scipy():
    d = GaussianDensity(np.array([1.0, 3.0]), 100.0 * np.eye(2))
    expected = stats.multivariate_normal(mean=[1.0, 3.0], cov=100.0 * np.eye(2))
    x = np.array([7.0, 10.0])
    np.testing.assert_allclose(d.pdf(x), expected.pdf(x), rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_evaluation_matches_scipy(dim, rng):
    d = random_gaussian(rng, dim)
    expected = stats.multivariate_normal(mean=d.mean, cov=d.cov)
    pts = d.mean + rng.standard_normal((40, dim)) @ np.linalg.cholesky(d.cov).T
    np.testing.assert_allclose(d.logpdf(pts), expected.logpdf(pts), rtol=1e-10)
    np.testing.assert_allclose(d.pdf(pts), expected.pdf(pts), rtol=1e-10)
    single = pts[0] if dim > 1 else float(pts[0, 0])
    assert np.ndim(d.logpdf(single)) == 0


def test_evaluation_rejects_wrong_dimension():
    d = GaussianDensity(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="dimension"):
        d.logpdf(np.zeros(3))


def test_product_of_scalar_gaussians():
    a = GaussianDensity(np.array([50.0]), np.array([[10.0]]))
    b = GaussianDensity(np.array([-30.0]), np.array([[20.0]]))
    result = gaussian_product(a, b)
    assert result.density.mean[0] == pytest.approx(23.33, abs=0.01)
    assert result.density.cov[0, 0] == pytest.approx(6.67, abs=0.01)
    # The scale is the cross evaluation N(b mean; a mean, A + B).
    cross = stats.norm(loc=50.0, scale=math.sqrt(30.0)).pdf(-30.0)
    assert math.exp(result.log_scale) == pytest.approx(cross, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_pointwise_identity(dim, rng):
    a = random_gaussian(rng, dim)
    b = random_gaussian(rng, dim)
    result = gaussian_product(a, b)
    pts = a.mean + rng.standard_normal((25, dim)) @ np.linalg.cholesky(a.cov).T
    np.testing.assert_allclose(np.exp(result.log_scale + result.density.logpdf(pts)),
                               a.pdf(pts) * b.pdf(pts), rtol=1e-9)


def test_product_rejects_dimension_mismatch(rng):
    with pytest.raises(ValueError, match="dimension"):
        gaussian_product(random_gaussian(rng, 2), random_gaussian(rng, 3))


def test_division_by_much_wider_gaussian_is_nearly_identity():
    num = GaussianDensity(np.zeros(1), np.eye(1))
    den = GaussianDensity(np.zeros(1), np.array([[1e6]]))
    result = gaussian_division(num, den)
    assert result.density.mean[0] == pytest.approx(0.0, abs=1e-9)
    assert result.density.cov[0, 0] == pytest.approx(1.000001, abs=1e-8)


def test_division_of_product_by_moment_match():
    a = GaussianDensity(np.array([50.0]), np.array([[10.0]]))
    b = GaussianDensity(np.array([-30.0]), np.array([[20.0]]))
    product = gaussian_product(a, b).density
    matched = moment_match(GaussianMixture(np.array([0.5, 0.5]), (a, b)))
    assert matched.mean[0] == pytest.approx(10.0, abs=1e-12)
    assert matched.cov[0, 0] == pytest.approx(1615.0, abs=1e-9)
    result = gaussian_division(product, matched)
    assert result.density.mean[0] == pytest.approx(23.39, abs=0.01)
    assert result.density.cov[0, 0] == pytest.approx(6.69, abs=0.01)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_division_pointwise_identity(dim, rng):
    num = random_gaussian(rng, dim)
    # Widen the denominator so the precision gap is comfortably positive.
    den = GaussianDensity(num.mean + rng.standard_normal(dim),
                          num.cov + random_spd(rng, dim, scale=6.0))
    result = gaussian_division(num, den)
    pts = num.mean + rng.standard_normal((25, dim)) @ np.linalg.cholesky(num.cov).T
    np.testing.assert_allclose(np.exp(result.log_scale + result.density.logpdf(pts)),
                               num.pdf(pts) / den.pdf(pts), rtol=1e-9)


def test_division_requires_more_informative_numerator():
    wide = GaussianDensity(np.zeros(1), np.array([[2.0]]))
    narrow = GaussianDensity(np.zeros(1), np.array([[1.0]]))
    with pytest.raises(NonPositiveDefiniteResult):
        gaussian_division(wide, narrow)
    with pytest.raises(NonPositiveDefiniteResult):
        gaussian_division(narrow, narrow)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 7, 99])
def test_product_then_division_round_trip(dim, seed):
    rng = np.random.default_rng(seed)
    a = random_gaussian(rng, dim)
    b = random_gaussian(rng, dim)
    product = gaussian_product(a, b)
    recovered = gaussian_division(product.density, b)
    np.testing.assert_allclose(recovered.density.mean, a.mean, rtol=0, atol=1e-8)
    np.testing.assert_allclose(recovered.density.cov, a.cov, rtol=1e-8, atol=1e-8)
    # The scales cancel: (p_a p_b / s) / p_b = p_a / s.
    assert recovered.log_scale == pytest.approx(-product.log_scale, abs=1e-8)


def test_moment_match_matches_two_pass_formula(rng):
    weights = rng.random(4) + 0.1
    comps = tuple(random_gaussian(rng, 3) for _ in range(4))
    matched = moment_match(GaussianMixture(weights, comps))
    w = weights / weights.sum()
    mean = sum(wi * c.mean for wi, c in zip(w, comps))
    second = sum(wi * (c.cov + np.outer(c.mean, c.mean)) for wi, c in zip(w, comps))
    cov = second - np.outer(mean, mean)
    np.testing.assert_allclose(matched.mean, mean, rtol=1e-12)
    np.testing.assert_allclose(matched.cov, cov, rtol=1e-6, atol=1e-6)


def test_moment_match_matches_sampling_oracle(rng):
    mix = GaussianMixture(
        np.array([0.5, 0.3, 0.2]),
        (
            GaussianDensity(np.array([0.0, 0.0]), np.array([[4.0, 1.0], [1.0, 3.0]])),
            GaussianDensity(np.array([6.0, -2.0]), np.array([[2.0, -0.5], [-0.5, 5.0]])),
            GaussianDensity(np.array([-3.0, 4.0]), np.eye(2)),
        ),
    )
    matched = moment_match(mix)
    n = 1_000_000
    choices = rng.choice(3, size=n, p=mix.weights)
    samples = np.empty((n, 2))
    for k, comp in enumerate(mix.components):
        idx = np.flatnonzero(choices == k)
        chol = np.linalg.cholesky(comp.cov)
        samples[idx] = comp.mean + rng.standard_normal((idx.size, 2)) @ chol.T
    mean_est, mean_se = mean_with_batch_se(samples)
    assert np.all(np.abs(matched.mean - mean_est) <= 3.0 * mean_se)
    dev = samples - matched.mean
    outer = dev[:, :, None] * dev[:, None, :]
    cov_est, cov_se = mean_with_batch_se(outer)
    assert np.all(np.abs(matched.cov - cov_est) <= 3.0 * cov_se)


def test_moment_match_covariance_dominates_component_average(rng):
    weights = rng.random(3) + 0.1
    comps = tuple(random_gaussian(rng, 2) for _ in range(3))
    matched = moment_match(GaussianMixture(weights, comps))
    w = weights / weights.sum()
    averaged = sum(wi * c.cov for wi, c in zip(w, comps))
    eigvals = np.linalg.eigvalsh(matched.cov - averaged)
    assert np.min(eigvals) >= -1e-10


def test_scaled_power_mass_matches_quadrature():
    d = GaussianDensity(np.zeros(1), np.array([[2.0]]))
    result = scaled_power(d, 0.5)
    grid = np.linspace(-40.0, 40.0, 400_001)
    mass = np.trapezoid(d.pdf(grid) ** 0.5, grid)
    assert math.exp(result.log_scale) == pytest.approx(mass, rel=1e-6)
    np.testing.assert_allclose(result.density.cov, [[4.0]], rtol=1e-12)


@pytest.mark.parametrize("w", [0.1, 0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scaled_power_pointwise_identity(w, dim, rng):
    d = random_gaussian(rng, dim)
    result = scaled_power(d, w)
    pts = d.mean + rng.standard_normal((25, dim)) @ np.linalg.cholesky(d.cov).T
    np.testing.assert_allclose(np.exp(result.log_scale + result.density.logpdf(pts)),
                               d.pdf(pts) ** w, rtol=1e-10)


@pytest.mark.parametrize("w", [0.0, -0.5, 1.5])
def test_scaled_power_rejects_weight_outside_unit_interval(w):
    d = GaussianDensity(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError, match="power weight"):
        scaled_power(d, w)


def test_scaled_power_at_one_is_identity():
    d = GaussianDensity(np.array([3.0]), np.array([[2.0]]))
    result = scaled_power(d, 1.0)
    assert result.log_scale == 0.0
    assert result.density is d


def test_assert_spd_returns_cholesky(rng):
    cov = random_spd(rng, 4)
    chol = assert_spd(cov)
    np.testing.assert_allclose(chol @ chol.T, cov, rtol=1e-10, atol=1e-12)


def test_assert_spd_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        assert_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_assert_spd_rejects_indefinite_and_singular():
    with pytest.raises(NotPositiveDefinite):
        assert_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        assert_spd(np.diag([1.0, 1e-15]))
    with pytest.raises(NotPositiveDefinite):
        assert_spd(np.zeros((2, 3)))
    for empty in (np.zeros((0, 0)), np.zeros((3, 0, 0))):
        with pytest.raises(NotPositiveDefinite, match=r"at least one dimension, got shape \("):
            assert_spd(empty)
    with pytest.raises(NotPositiveDefinite, match="at least one dimension"):
        spd_inv(np.zeros((0, 0)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_assert_spd_returns_an_empty_factor_for_a_zero_member_stack(dim):
    assert assert_spd(np.zeros((0, dim, dim))).shape == (0, dim, dim)
    assert spd_inv(np.zeros((0, dim, dim))).shape == (0, dim, dim)


def test_spd_inverse_matches_numpy(rng):
    cov = random_spd(rng, 5)
    np.testing.assert_allclose(spd_inv(cov), np.linalg.inv(cov), rtol=1e-8,
                               atol=1e-12)


def test_density_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="covariance shape"):
        GaussianDensity(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError, match="vector"):
        GaussianDensity(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        GaussianDensity(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    for lead in ((), (3,)):
        with pytest.raises(ValueError, match="at least one dimension"):
            GaussianDensity(np.zeros(lead + (0,)), np.zeros(lead + (0, 0)))


def test_mixture_validation():
    comp = GaussianDensity(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="one weight per component"):
        GaussianMixture(np.array([0.5]), (comp, comp))
    for empty in ((), GaussianDensity(np.zeros((0, 2)), np.zeros((0, 2, 2))),
                  GaussianDensity(np.zeros((3, 0, 2)), np.zeros((3, 0, 2, 2)))):
        with pytest.raises(ValueError, match="a mixture needs at least one component"):
            GaussianMixture(np.zeros(0), empty)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        GaussianMixture(np.array([0.5, -0.5]), (comp, comp))
    with pytest.raises(ValueError, match="share one dimension"):
        GaussianMixture(np.array([0.5, 0.5]),
                        (comp, GaussianDensity(np.zeros(3), np.eye(3))))
    with pytest.raises(ValueError, match="one tag per component"):
        GaussianMixture(np.array([0.5, 0.5]), (comp, comp), tags=("a",))
    with pytest.raises(ValueError, match="zero total weight"):
        GaussianMixture(np.array([0.0, 0.0]), (comp, comp)).normalized()


def test_mixture_evaluation_matches_weighted_sum(rng):
    weights = np.array([0.6, 0.4])
    comps = (random_gaussian(rng, 2), random_gaussian(rng, 2))
    mix = GaussianMixture(weights, comps, tags=("cv", "ca"))
    pts = rng.standard_normal((20, 2)) * 3.0
    expected = weights[0] * comps[0].pdf(pts) + weights[1] * comps[1].pdf(pts)
    np.testing.assert_allclose(mix.pdf(pts), expected, rtol=1e-12)
    np.testing.assert_allclose(mix.logpdf(pts), np.log(expected), rtol=1e-10)
    normalized = mix.normalized()
    assert normalized.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert normalized.tags == ("cv", "ca")


def test_mixture_log_evaluation_is_stable_far_from_components():
    mix = GaussianMixture(
        np.array([0.5, 0.5]),
        (GaussianDensity(np.array([-100.0]), np.eye(1)),
         GaussianDensity(np.array([100.0]), np.eye(1))),
    )
    val = mix.logpdf(np.array([0.0]))
    assert np.isfinite(val)
    # Both components sit 100 sigma away, so the two halves sum to one full
    # component evaluation; a naive exp-then-log route underflows to -inf.
    assert val == pytest.approx(
        float(GaussianDensity(np.array([-100.0]), np.eye(1)).logpdf(0.0)),
        abs=1e-6)


def test_density_dict_round_trip(rng):
    d = random_gaussian(rng, 3)
    blob = json.dumps(density_to_dict(d))
    back = density_from_dict(json.loads(blob))
    np.testing.assert_allclose(back.mean, d.mean, rtol=0, atol=0)
    np.testing.assert_allclose(back.cov, d.cov, rtol=0, atol=0)

    mix = GaussianMixture(np.array([0.7, 0.3]),
                          (random_gaussian(rng, 2), random_gaussian(rng, 2)),
                          tags=("0|1", "1|0"))
    back_mix = density_from_dict(json.loads(json.dumps(density_to_dict(mix))))
    assert back_mix.tags == ("0|1", "1|0")
    np.testing.assert_allclose(back_mix.weights, mix.weights, rtol=0, atol=0)
    for got, want in zip(back_mix.components, mix.components):
        np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=0)


def test_density_dict_rejects_malformed_input():
    with pytest.raises(ValueError, match="JSON"):
        density_from_dict([1, 2, 3])
    with pytest.raises(ValueError, match="keys"):
        density_from_dict({"mean": [0.0]})
    with pytest.raises(ValueError, match="plain Gaussians"):
        density_from_dict({
            "weights": [1.0],
            "components": [{"weights": [1.0],
                            "components": [{"mean": [0.0], "cov": [[1.0]]}]}],
        })
    for tags in ([1, 2], "ab", None):
        with pytest.raises(ValueError, match="tags must be a list of strings"):
            density_from_dict({"weights": [0.5, 0.5], "tags": tags,
                               "components": [{"mean": [0.0], "cov": [[1.0]]}] * 2})
    with pytest.raises(TypeError):
        density_to_dict("not a density")


def test_symmetrize_halves_asymmetry():
    mat = np.array([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_allclose(symmetrize(mat), [[1.0, 1.0], [1.0, 1.0]])
